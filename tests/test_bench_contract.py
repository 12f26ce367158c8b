"""The benchmark child (perfbench/child.py) builds its reference values from
the preset API, outside the timed CLI run.  If that API breaks, every
optimize check fails and ``pass_frac`` reads 0 while the rest of the suite
stays green, so the calls it makes are pinned here."""

import pytest

import smpkit.cli as cli
from smpkit.forward import TimeGrid
from smpkit.scenarios import build_preset, load_preset, riccati_oracle


def test_child_optimize_reference():
    # the calls of check_optimize, in its order
    cfg = load_preset("lq_scalar")
    scenario, lq = build_preset(cfg)
    T = float(cfg.get("T", 1.0))
    grid = TimeGrid(0.0, T, int(round(T / 0.005)))
    target = riccati_oracle(lq, grid).value_at(scenario.x0)
    assert target == pytest.approx(0.545, abs=1e-6)


def test_main_looks_up_the_wrapped_preset_names(tmp_path, monkeypatch):
    # the tracer times preset loading by replacing these two module names
    calls = []
    for name in ("load_preset", "build_preset"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name: calls.append(_name)
                            or _real(*a))
    code = cli.main(["simulate-forward", "--preset", "lq_scalar", "--paths", "2",
                     "--dt", "0.5", "--outdir", str(tmp_path)])
    assert code == 0 and calls == ["load_preset", "build_preset"]
