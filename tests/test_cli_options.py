"""Each run option and input rule has one home: the subcommand parser
declares a command's options, each of which its run reads, and the
spike-window rule of ``spike_experiment`` is the one the CLI checks before
it runs."""

import argparse

import numpy as np
import pytest

import smpkit.cli as cli
from smpkit.cli import COMMANDS, _spike_time, build_parser, main
from smpkit.errors import DomainError
from smpkit.forward import OpenLoop, TimeGrid, sample_brownian
from smpkit.maximum_principle import spike_experiment
from smpkit.scenarios import make_lq_scalar

# keys every manifest holds beside the options
FIXED = {"tool", "n_steps", "dt_used", "peak_rss_mb", "numpy_version", "blas",
         "blas_threads_env", "wall_time_seconds"}
# keys a command adds from its result
RESULT = {"solve-second-adjoint": {"symmetry_drift"},
          "check-mp": {"max_violation", "argmax_t", "argmax_u"},
          "optimize": {"final_J"}}
# per command, options that keep the run small and passing
SMALL = {"optimize": ["--max-iters", "1"], "verify-duality": ["--tuples", "2"],
         "spike-experiment": ["--eps-list", "0.2,0.1"], "check-mp": ["--control", "riccati"],
         "cross-validate-oracles": ["--dt", "0.005"]}
# the options each command declares beside --preset, --dt, --outdir and --workers
SAMPLING = {"paths", "seed"}
OWN = {
    "simulate-forward": SAMPLING | {"control"},
    "solve-adjoint": SAMPLING | {"control"},
    "solve-second-adjoint": SAMPLING | {"control"},
    "verify-duality": SAMPLING | {"control", "k_sigma", "order", "tuples"},
    "check-mp": SAMPLING | {"control", "k_sigma", "u_points", "t_points"},
    "optimize": SAMPLING | {"step", "max_iters"},
    "spike-experiment": SAMPLING | {"control", "tau", "eps_list", "u_alt"},
    "cross-validate-oracles": {"lattice_points", "lattice_lo", "lattice_hi", "u_points"},
}
# declared options no run reads, each with the reason it stays
UNREAD = {"workers": "the benchmark argvs (perfbench/run.py) pass --workers 1"}


def small_argv(command, outdir):
    """A small, passing run of ``command`` on lq_scalar."""
    sampling = ["--paths", "300", "--seed", "2"] if "paths" in OWN[command] else []
    return [command, "--preset", "lq_scalar", *sampling, "--dt", "0.05",
            *SMALL.get(command, []), "--outdir", str(outdir)]


def test_each_command_declares_exactly_its_options():
    declared = {command: set(vars(build_parser().parse_args([command, "--preset", "p"])))
                for command in COMMANDS}
    for command, options in declared.items():
        assert options == {"command", "preset", "dt", "outdir", "workers"} | OWN[command]
    assert sum(len(options) - 1 for options in declared.values()) == 67  # flags, not "command"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_lists_exactly_the_parsed_options(tmp_path, command):
    outdir = tmp_path / command
    argv = small_argv(command, outdir)
    assert main(argv) == 0
    manifest = dict(line.split(" = ", 1)
                    for line in (outdir / "manifest.txt").read_text().splitlines())
    options = vars(build_parser().parse_args(argv))
    assert set(manifest) == set(options) | FIXED | RESULT.get(command, set())
    assert manifest["command"] == command and manifest["preset"] == "lq_scalar"
    assert manifest.get("paths") == ("300" if "paths" in OWN[command] else None)


class _Reads(argparse.Namespace):
    """Parsed options that record, in ``READ``, each one read as an
    attribute.  ``vars(cfg)`` reads none: the manifest echo and the range
    checks of ``_grid_for`` go through it, so neither counts as a use."""

    READ = set()

    def __getattribute__(self, name):
        _Reads.READ.add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_declared_option_has_a_reader(tmp_path, monkeypatch, command):
    parser = build_parser()
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: _Reads(**vars(parse(argv))))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(_Reads, "READ", set())
    argv = small_argv(command, tmp_path / command)
    assert main(argv) == 0
    declared = set(vars(parse(argv)))
    assert declared - _Reads.READ == set(UNREAD), "declared, but the run never reads it"


# flags a command no longer declares, because its run never read them
REMOVED = ([(command, "--k-sigma", "3") for command in COMMANDS
            if command not in ("verify-duality", "check-mp")]
           + [("optimize", "--control", "riccati"), ("cross-validate-oracles", "--control", "zero"),
              ("cross-validate-oracles", "--paths", "300"), ("cross-validate-oracles", "--seed", "2")])


@pytest.mark.parametrize("command, flag, value", REMOVED)
def test_removed_flags_exit_2(tmp_path, capsys, command, flag, value):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(small_argv(command, outdir) + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not outdir.exists()


# (--tau, --eps-list, message) at dt = 0.05 on a horizon of 1
BAD_SPIKES = [
    ("0.3", "0.1,0.2", "strictly decreasing"),
    ("0.3", "0.2,-0.1", "strictly decreasing"),
    ("0.3", "nan", "strictly decreasing"),
    ("5", "0.2", "leaves the horizon"),
    ("0.9", "0.3,0.1", "leaves the horizon"),
    ("inf", "0.2", "leaves the horizon"),
    ("-0.1", "0.2", "before the grid start"),
    ("nan", "0.2", "NaN or before the grid start"),
    ("0.3", "0.2,0.01", "rounds to a spike of 0 steps"),
    ("0.3", "0.1,0.09", "round to the same spike of 2 steps"),
]


@pytest.mark.parametrize("tau, eps, message", BAD_SPIKES)
def test_cli_and_spike_experiment_reject_the_same_spikes(tmp_path, capsys, tau, eps, message):
    outdir = tmp_path / "out"
    code = main(["spike-experiment", "--preset", "lq_scalar", "--paths", "300", "--dt", "0.05",
                 "--seed", "1", "--tau", tau, "--eps-list", eps, "--outdir", str(outdir)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not outdir.exists()

    scenario, _ = make_lq_scalar()
    ens = sample_brownian(TimeGrid(0.0, 1.0, 20), 300, 1)
    # the CLI hands spike_experiment --tau rounded to the grid
    with pytest.raises(DomainError, match=message):
        spike_experiment(scenario, scenario.x0, OpenLoop(np.zeros((20, 1))), np.array([0.5]),
                         _spike_time(float(tau), ens.grid.dt),
                         [float(e) for e in eps.split(",")], ens)
