"""Each run option and input rule has one home: the subcommand parser
declares a command's options, and the spike-window rule of
``spike_experiment`` is the one the CLI checks before it runs."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("command", list(COMMANDS))
def test_manifest_lists_exactly_the_parsed_options(tmp_path, command):
    outdir = tmp_path / command
    argv = [command, "--preset", "lq_scalar", "--paths", "300", "--dt", "0.05",
            "--seed", "2", *SMALL.get(command, []), "--outdir", str(outdir)]
    assert main(argv) == 0
    manifest = dict(line.split(" = ", 1)
                    for line in (outdir / "manifest.txt").read_text().splitlines())
    options = vars(build_parser().parse_args(argv))
    assert set(manifest) == set(options) | FIXED | RESULT.get(command, set())
    assert manifest["command"] == command and manifest["paths"] == "300"


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
