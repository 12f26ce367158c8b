"""The benchmark child (perfbench/child.py) builds its reference values from
the preset API, outside the timed CLI run, and its tracer
(perfbench/tracing.py) reads storage sizes off the adjoint solves' results.
If either breaks, the benchmark fails (``pass_frac`` reads 0, or every
traced run crashes) while the rest of the suite stays green, so what they
use is pinned here."""

import numpy as np
import pytest

import smpkit.cli as cli
import smpkit.maximum_principle as mp
from smpkit.adjoint import solve_first_adjoint
from smpkit.forward import OpenLoop, TimeGrid, sample_brownian, simulate_controlled
from smpkit.maximum_principle import second_order_data
from smpkit.scenarios import build_preset, load_preset, riccati_oracle
from smpkit.second_order import lyapunov_oracle, solve_second_adjoint

from helpers import load_perfbench, load_tracing, per_path_jacobians


def test_child_optimize_reference():
    # the calls of check_optimize, in its order
    cfg = load_preset("lq_scalar")
    scenario, lq = build_preset(cfg)
    T = float(cfg.get("T", 1.0))
    grid = TimeGrid(0.0, T, int(round(T / 0.005)))
    target = riccati_oracle(lq, grid).value_at(scenario.x0)
    assert target == pytest.approx(0.545, abs=1e-6)


def test_child_second_adjoint_reference():
    # what check_second_adjoint takes from the captured second_order_data on
    # heat4: (N, n, n) J, K, F, a per-path P_T, and the Lyapunov sweep on
    # P_T's path mean
    scenario, _ = build_preset(load_preset("heat4"))
    n, n_steps, n_paths = scenario.n_modes, 8, 200
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, 2)
    traj = simulate_controlled(scenario, scenario.x0,
                               OpenLoop(np.zeros((n_steps, scenario.control_dim))), ens)
    J, K, F, P_T = second_order_data(scenario, traj, solve_first_adjoint(scenario, traj, ens))
    for c in (J, K, F):
        assert c.shape == (n_steps, n, n)
    assert P_T.shape == (n_paths, n, n)
    oracle = lyapunov_oracle(scenario.op, J, K, F, P_T.mean(axis=0), grid)
    assert oracle.shape == (n_steps + 1, n, n) and np.isfinite(oracle).all()


# the benchmark argvs made small: option -> value
SMALL = {"--paths": "300", "--dt": "0.05", "--tuples": "2", "--max-iters": "1"}
# what main must look up in smpkit.cli on each benchmark argv
WRAPPED = {
    "duality-heat4": ["load_preset", "build_preset", "sample_brownian", "second_order_data"],
    "optimize-lq": ["load_preset", "build_preset", "sample_brownian"],
    "fine-heat4": ["load_preset", "build_preset", "sample_brownian", "second_order_data"],
}


def test_main_looks_up_the_wrapped_preset_names(tmp_path, monkeypatch):
    # the tracer times preset loading by replacing the two preset names, and
    # the child replaces sample_brownian (the end of setup_s) and
    # second_order_data (fine-heat4's Lyapunov check); a call that reaches
    # them other than through smpkit.cli loses setup_s, or every check
    calls = []
    for name in WRAPPED["duality-heat4"]:
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name: calls.append(_name)
                            or _real(*a))
    code = cli.main(["simulate-forward", "--preset", "lq_scalar", "--paths", "2",
                     "--dt", "0.5", "--outdir", str(tmp_path / "forward")])
    assert code == 0 and calls == ["load_preset", "build_preset", "sample_brownian"]
    workloads = load_perfbench("run").WORKLOADS
    assert set(workloads) == set(WRAPPED)
    for workload, argv in workloads.items():
        calls.clear()
        argv = [SMALL.get(prev, tok) for prev, tok in zip([None] + argv, argv)]
        code = cli.main(argv + ["--seed", "1", "--outdir", str(tmp_path / workload)])
        assert code == 0 and calls == WRAPPED[workload], (workload, calls)


# what the optimizer looks up in smpkit.maximum_principle once per iteration
PER_ITERATION = ("simulate_controlled", "cost_paths", "solve_first_adjoint")


def test_optimizer_looks_up_the_traced_names_once_per_iteration(tmp_path, monkeypatch):
    # the tracer counts forward.simulate_calls and adjoint.solve_first_calls
    # through these lookups, so the counts stay comparable across changes
    # only while every iteration makes each call once through the module
    calls = []
    for name in PER_ITERATION:
        real = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda *a, _real=real, _name=name, **k: calls.append(_name)
                            or _real(*a, **k))
    argv = load_perfbench("run").WORKLOADS["optimize-lq"]
    argv = [SMALL.get(prev, tok) for prev, tok in zip([None] + argv, argv)]
    code = cli.main(argv + ["--seed", "1", "--outdir", str(tmp_path / "optimize")])
    assert code == 0
    assert calls == list(PER_ITERATION) * (int(SMALL["--max-iters"]) + 1)


# the attributes perfbench/tracing.py::_observe reads off each solve's result
OBSERVED = {
    "adjoint.solve_first": ("y", "Y", "driver"),
    "second_order.solve_second": ("beta_P", "beta_Q", "P_terminal", "dense_P", "dense_Q"),
}


def test_tracer_reads_every_adjoint_result():
    # a missing attribute crashes every traced benchmark run, not a test
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, 1.0, 8)
    ens = sample_brownian(grid, 200, 2)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((8, 2))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    coeff = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    dense_data = second_order_data(per_path_jacobians(scenario), traj, pair)
    assert dense_data[0].ndim == 4
    dense = solve_second_adjoint(scenario.op, *dense_data, ens, features=pair.features)
    tracing = load_tracing()
    for metric, result in (("adjoint.solve_first", pair),
                           ("second_order.solve_second", coeff),
                           ("second_order.solve_second", dense)):
        for name in OBSERVED[metric]:
            value = getattr(result, name)
            assert value is None or isinstance(value.nbytes, int), (metric, name)
        tracer = tracing.Tracer()
        tracing._observe(tracer, metric, result)
        assert max(tracer.mbytes.values()) > 0, metric


@pytest.mark.parametrize("path_constant", [True, False])
def test_tracer_sizes_the_first_adjoint_coefficients(path_constant):
    # the names the tracer sizes on a swept pair are the read-only
    # (n_steps, n_features, n) coefficients it stores, so none of them can
    # quietly become a per-path history again; an unfolded driver's mean fit
    # is beta_y itself and is not stored twice
    scenario, _ = build_preset(load_preset("heat4"))
    if not path_constant:
        scenario = per_path_jacobians(scenario)
    grid = TimeGrid(0.0, 1.0, 8)
    ens = sample_brownian(grid, 200, 2)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((8, 2))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    block = (grid.n_steps, pair.features.n_features, scenario.n_modes)
    stored = [getattr(pair, name) for name in OBSERVED["adjoint.solve_first"]]
    assert (stored[2] is None) != path_constant
    stored = [value for value in stored if value is not None]
    for value in stored:
        assert value.shape == block and not value.flags.writeable
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing._observe(tracer, "adjoint.solve_first", pair)
    assert tracer.mbytes["adjoint.history_mb"] == len(stored) * np.prod(block) * 8 / 2**20
