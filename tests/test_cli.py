import filecmp
import os

import numpy as np
import pytest

import smpkit.cli as cli
from smpkit.cli import main
from smpkit.forward import OpenLoop, sample_brownian


def run(tmp_path, name, *argv):
    outdir = tmp_path / name
    code = main(list(argv) + ["--outdir", str(outdir)])
    return code, outdir


def test_unknown_preset_exits_2(tmp_path):
    code, _ = run(tmp_path, "x", "verify-duality", "--preset", "missing_preset",
                  "--paths", "100", "--dt", "0.05", "--seed", "1")
    assert code == 2


BASE_DUALITY = {"--preset": "lq_scalar", "--paths": "200", "--dt": "0.05",
                "--seed": "1", "--tuples": "2"}


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "0", "--dt must be positive"),
    ("--dt", "0.3", "does not divide the horizon"),
    ("--tuples", "0", "--tuples must be at least 1"),
    ("--paths", "1", "--paths must be at least 2"),
], ids=["dt_zero", "dt_not_dividing_T", "no_tuples", "one_path"])
def test_unusable_options_exit_2(tmp_path, capsys, flag, value, message):
    options = dict(BASE_DUALITY, **{flag: value})
    argv = ["verify-duality"] + [tok for item in options.items() for tok in item]
    code, out = run(tmp_path, "bad", *argv)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (out / "duality_first.csv").exists()


SMALL_RUN = ["--preset", "lq_scalar", "--paths", "100", "--dt", "0.05", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (["spike-experiment", "--eps-list", "0.2,abc"], "--eps-list must be comma-separated"),
    (["spike-experiment", "--eps-list", "0.1,0.2"], "strictly decreasing"),
    (["spike-experiment", "--tau", "5"], "leaves the horizon"),
    (["optimize", "--max-iters", "-1"], "--max-iters must be at least 0"),
    (["check-mp", "--t-points", "0"], "--t-points must be at least 1"),
    (["check-mp", "--u-points", "0"], "--u-points must be at least 1"),
    (["spike-experiment", "--eps-list", "0.2,0.01"], "rounds to a spike of 0 steps"),
    (["spike-experiment", "--eps-list", "0.1,0.09"], "round to the same spike of 2 steps"),
    (["verify-duality", "--k-sigma", "inf"], "--k-sigma must be finite and nonnegative"),
    (["verify-duality", "--k-sigma", "nan"], "--k-sigma must be finite and nonnegative"),
    (["verify-duality", "--k-sigma", "-1"], "--k-sigma must be finite and nonnegative"),
    (["solve-adjoint", "--preset", "heat4", "--paths", "200", "--dt", "0.05", "--seed", "-1"],
     "--seed must be a nonnegative integer"),
    (["optimize", "--paths", "200", "--step", "nan", "--max-iters", "2"],
     "--step must be finite and positive"),
    (["optimize", "--step", "-1"], "--step must be finite and positive"),
    (["verify-duality", "--workers", "0"], "--workers must be at least 1"),
    (["verify-duality", "--workers", "-3"], "--workers must be at least 1"),
], ids=["eps_not_a_number", "eps_increasing", "tau_past_horizon", "negative_max_iters",
        "no_t_points", "no_u_points", "eps_empty_window", "eps_same_width", "k_sigma_inf",
        "k_sigma_nan", "k_sigma_negative", "seed_negative", "step_nan", "step_negative",
        "workers_zero", "workers_negative"])
def test_options_no_run_can_honour_exit_2(tmp_path, capsys, argv, message):
    # the case's own options come last, so they override SMALL_RUN's
    code, out = run(tmp_path, "bad", argv[0], *SMALL_RUN, *argv[1:])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not out.exists()


SPIKE_RUN = ["spike-experiment", "--paths", "200", "--dt", "0.05", "--eps-list", "0.2,0.1"]
ORACLE_RUN = ["cross-validate-oracles", "--preset", "lq_scalar", "--dt", "0.05"]


@pytest.mark.parametrize("argv, message", [
    (SPIKE_RUN + ["--preset", "lq_scalar", "--u-alt", "10"], "outside the admissible set"),
    (SPIKE_RUN + ["--preset", "lq_scalar", "--u-alt", "nan"], "outside the admissible set"),
    (SPIKE_RUN + ["--preset", "heat4", "--u-alt", "7"], "outside the admissible set"),
    (ORACLE_RUN + ["--lattice-points", "0"], "--lattice-points must be at least 2"),
    (ORACLE_RUN + ["--lattice-points", "1"], "--lattice-points must be at least 2"),
    (ORACLE_RUN + ["--lattice-lo", "3", "--lattice-hi", "-2"], "state lattice"),
    (ORACLE_RUN + ["--lattice-lo", "nan"], "state lattice"),
    (ORACLE_RUN + ["--lattice-hi", "inf"], "state lattice"),
    (["simulate-forward", "--preset", "{dir}"], "cannot read preset {dir}"),
    (["simulate-forward", "--preset", "{binary}"], "cannot read preset {binary}"),
], ids=["u_alt_outside_box", "u_alt_nan", "u_alt_outside_heat4_box", "no_lattice_nodes",
        "one_lattice_node", "lattice_decreasing", "lattice_lo_nan", "lattice_hi_inf",
        "preset_is_a_directory", "preset_not_utf8"])
def test_inputs_checked_before_the_run_exit_2(tmp_path, capsys, argv, message):
    # each ended in a traceback, or in exit 1 after the whole run
    binary = tmp_path / "binary.preset"
    binary.write_bytes(b"kind = lq_scalar\nsigma = 0.3 \xff\n")
    paths = {"dir": str(tmp_path), "binary": str(binary)}
    code, out = run(tmp_path, "bad", *(tok.format(**paths) for tok in argv))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message.format(**paths) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("joined", [False, True], ids=["own_token", "joined"])
@pytest.mark.parametrize("argv, flag, message", [
    (SPIKE_RUN + ["--preset", "lq_scalar"], "--u-alt", "outside the admissible set"),
    (ORACLE_RUN, "--lattice-lo", "state lattice"),
], ids=["u_alt", "lattice_lo"])
def test_negative_infinity_as_its_own_token_is_the_value(tmp_path, capsys, argv, flag, message,
                                                         joined):
    # argparse read a separate "-inf" as an option name and exited 2 with
    # its usage text instead of the value's own one-line error
    value = [f"{flag}=-inf"] if joined else [flag, "-inf"]
    code, out = run(tmp_path, "bad", *argv, *value)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not out.exists()


def test_manifest_records_grid_used(tmp_path):
    code, out = run(tmp_path, "g", "simulate-forward", "--preset", "lq_scalar",
                    "--paths", "200", "--dt", "0.005", "--seed", "2")
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "n_steps = 200" in manifest
    assert "dt_used = " + format(1.0 / 200, ".17g") in manifest


def test_verify_duality_deterministic_and_worker_independent(tmp_path):
    args = ["verify-duality", "--preset", "lq_scalar", "--paths", "1500",
            "--dt", "0.02", "--seed", "7", "--tuples", "4"]
    code1, out1 = run(tmp_path, "a", *args, "--workers", "1")
    code2, out2 = run(tmp_path, "b", *args, "--workers", "1")
    code3, out3 = run(tmp_path, "c", *args, "--workers", "3")
    assert code1 == code2 == code3 == 0
    for fname in ("duality_first.csv", "duality_second.csv"):
        assert filecmp.cmp(out1 / fname, out2 / fname, shallow=False)
        assert filecmp.cmp(out1 / fname, out3 / fname, shallow=False)


def test_manifest_echoes_config(tmp_path):
    code, out = run(tmp_path, "m", "simulate-forward", "--preset", "lq_scalar",
                    "--paths", "500", "--dt", "0.02", "--seed", "11")
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "command = simulate-forward" in manifest
    assert "seed = 11" in manifest
    assert "dt = 0.02" in manifest
    assert "wall_time_seconds" in manifest
    assert (out / "forward_stats.csv").exists()
    assert (out / "cost_estimate.csv").exists()


def test_check_mp_exit_codes(tmp_path):
    base = ["check-mp", "--preset", "lq_scalar", "--paths", "4000",
            "--dt", "0.01", "--seed", "5"]
    code_opt, out_opt = run(tmp_path, "opt", *base, "--control", "riccati")
    assert code_opt == 0
    code_zero, out_zero = run(tmp_path, "zero", *base, "--control", "zero")
    assert code_zero == 1
    rows = (out_zero / "mp_report.csv").read_text().strip().splitlines()
    assert any(row.endswith(",0") for row in rows[1:])  # a violating entry


def test_second_adjoint_and_matrix_preset(tmp_path):
    code, out = run(tmp_path, "mat", "verify-duality", "--preset", "mat_scalar",
                    "--order", "second", "--paths", "1500", "--dt", "0.02",
                    "--seed", "3", "--tuples", "3")
    assert code == 0
    text = (out / "duality_second.csv").read_text()
    assert text.splitlines()[0] == "identity,n_paths,dt,lhs,rhs,residual,stderr,pass"


def test_heat_preset_through_cli(tmp_path):
    code, out = run(tmp_path, "h", "verify-duality", "--preset", "heat4",
                    "--order", "first", "--paths", "1500", "--dt", "0.02",
                    "--seed", "5", "--tuples", "2")
    assert code == 0
    assert (out / "duality_first.csv").exists()
    code2, out2 = run(tmp_path, "hf", "simulate-forward", "--preset", "heat4",
                      "--control", "riccati", "--paths", "500", "--dt", "0.02",
                      "--seed", "5")
    assert code2 == 0


def test_cross_validate_oracles(tmp_path):
    code, out = run(tmp_path, "cv", "cross-validate-oracles", "--preset", "lq_scalar",
                    "--dt", "0.005")
    assert code == 0
    lines = (out / "oracle_cross.csv").read_text().strip().splitlines()
    assert lines[0] == "method,value,rel_gap,pass"
    assert all(line.endswith(",1") for line in lines[1:])


def test_optimize_writes_history(tmp_path):
    code, out = run(tmp_path, "o", "optimize", "--preset", "lq_scalar",
                    "--paths", "1000", "--dt", "0.02", "--seed", "9",
                    "--max-iters", "5")
    assert code == 0
    lines = (out / "optimize_history.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,J,stderr,step_norm"
    assert len(lines) >= 2
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    assert costs[-1] <= costs[0]


def test_spike_experiment_artifact(tmp_path):
    code, out = run(tmp_path, "s", "spike-experiment", "--preset", "lq_scalar",
                    "--paths", "1500", "--dt", "0.02", "--seed", "13",
                    "--control", "riccati", "--eps-list", "0.2,0.1")
    assert code == 0
    lines = (out / "spike_table.csv").read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,tau,J_perturbed,J_base,delta_J,predicted,remainder")
    assert len(lines) == 3


BAD_PRESETS = {
    "not_a_number": ("kind = lq_scalar\nsigma = abc\n", "preset key sigma"),
    "unknown_key": ("kind = lq_scalar\nsigmaa = 0.1\n", "preset key sigmaa"),
    "scalar_x0_given_two": ("kind = lq_scalar\nx0 = 1.0, 2.0\n", "preset key x0"),
    "unknown_kind": ("kind = heatx\n", "preset key kind"),
    "malformed_line": ("kind = lq_scalar\nthis is not a pair\n", "bad preset line"),
    "heat_x0_wrong_length": ("kind = heat\nn_modes = 4\nx0 = 1.0, 0.5, 0.25\n", "x0 has 3 entries"),
    "zero_horizon": ("kind = lq_scalar\nT = 0\n", "preset key T"),
}
MATRIX_MISUSE = {
    command: [command] for command in ("simulate-forward", "solve-adjoint", "check-mp", "optimize",
                                       "spike-experiment", "cross-validate-oracles")
}
MATRIX_MISUSE["verify-duality_order_first"] = ["verify-duality", "--order", "first"]


@pytest.mark.parametrize("case", list(BAD_PRESETS) + list(MATRIX_MISUSE))
def test_bad_preset_or_matrix_misuse_exits_2(tmp_path, capsys, case):
    if case in BAD_PRESETS:
        text, message = BAD_PRESETS[case]
        preset = tmp_path / "bad.preset"
        preset.write_text(text)
        argv = ["simulate-forward", "--preset", str(preset)]
    else:
        argv = MATRIX_MISUSE[case] + ["--preset", "mat_scalar"]
        message = " ".join(MATRIX_MISUSE[case]) + " needs a control problem"
    sampling = [] if argv[0] == "cross-validate-oracles" else ["--paths", "200", "--seed", "1"]
    code, out = run(tmp_path, "out", *argv, *sampling, "--dt", "0.05")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not list(out.glob("*.csv"))
    assert not out.exists()  # no output directory is left behind


def test_cross_validate_rejects_vector_preset(tmp_path, capsys):
    code, out = run(tmp_path, "cv", "cross-validate-oracles", "--preset", "heat4",
                    "--dt", "0.05")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: cross-validate-oracles needs a scalar preset; heat4 is not"]
    assert not (out / "manifest.txt").exists() and not list(out.glob("*.csv"))
    assert not out.exists()


def test_manifest_records_peak_memory_and_numpy_version(tmp_path, monkeypatch):
    args = ["solve-adjoint", "--preset", "lq_scalar", "--paths", "500", "--dt", "0.05",
            "--seed", "4"]
    code, out = run(tmp_path, "with", *args)
    monkeypatch.setattr(cli, "_run_stats", lambda: {})
    code_bare, out_bare = run(tmp_path, "without", *args)
    assert code == code_bare == 0
    manifest = dict(line.split(" = ", 1)
                    for line in (out / "manifest.txt").read_text().splitlines())
    assert float(manifest["peak_rss_mb"]) > 0
    assert manifest["numpy_version"] == np.__version__
    # the two keys go to the manifest only: the primary CSVs are byte-identical
    csvs = sorted(p.name for p in out_bare.glob("*.csv"))
    assert csvs == sorted(p.name for p in out.glob("*.csv")) == ["adjoint_stats.csv"]
    for name in csvs:
        assert filecmp.cmp(out / name, out_bare / name, shallow=False)


def _manifest(outdir):
    return dict(line.split(" = ", 1) for line in (outdir / "manifest.txt").read_text().splitlines())


def test_manifest_records_blas_and_its_thread_variables(tmp_path, monkeypatch):
    args = ["solve-adjoint", "--preset", "lq_scalar", "--paths", "500", "--dt", "0.05",
            "--seed", "4"]
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    code_set, out_set = run(tmp_path, "set", *args)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    code_default, out_default = run(tmp_path, "default", *args)
    monkeypatch.setattr(cli, "_run_stats", lambda: {})
    code_bare, out_bare = run(tmp_path, "bare", *args)
    assert code_set == code_default == code_bare == 0
    assert _manifest(out_set)["blas_threads_env"] == "OPENBLAS_NUM_THREADS=1"
    assert _manifest(out_default)["blas_threads_env"] == "default"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert _manifest(out_set)["blas"] == f"{blas['name']} {blas['version']}"
    # the keys go to the manifest only: the primary CSVs are byte-identical
    for out in (out_set, out_default):
        assert sorted(p.name for p in out.glob("*.csv")) == ["adjoint_stats.csv"]
        assert filecmp.cmp(out / "adjoint_stats.csv", out_bare / "adjoint_stats.csv",
                           shallow=False)


def test_first_adjoint_of_another_ensemble_exits_2(tmp_path, capsys, monkeypatch):
    # the second sweep regresses on the first adjoint's features, which must
    # come from the run's own ensemble
    solve = cli.solve_first_adjoint

    def on_another_ensemble(scenario, traj, ens):
        other = sample_brownian(ens.grid, ens.n_paths, 99)
        control = OpenLoop(np.zeros((ens.grid.n_steps, scenario.control_dim)))
        return solve(scenario, cli.simulate_controlled(scenario, scenario.x0, control, other),
                     other)

    monkeypatch.setattr(cli, "solve_first_adjoint", on_another_ensemble)
    code, out = run(tmp_path, "mix", "solve-second-adjoint", "--preset", "lq_scalar",
                    "--paths", "200", "--dt", "0.05", "--seed", "1")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed lineage differs"), err
    assert not (out / "second_adjoint_stats.csv").exists()


def test_optimize_with_an_unstable_step_exits_1(tmp_path, capsys):
    # at step 5 the cost grows on every iteration, and the step rule gives up
    code, out = run(tmp_path, "o", "optimize", "--preset", "lq_scalar", "--paths", "500",
                    "--dt", "0.05", "--step", "5", "--seed", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert "cost increased for 5 consecutive iterations" in err, err
    assert not (out / "optimize_history.csv").exists()


def test_verify_duality_failing_both_orders_exits_1_naming_both_csvs(tmp_path, capsys):
    # with no bias budget and k_sigma 0 the tolerance is 0, so every
    # Monte Carlo residual fails
    preset = tmp_path / "unbiased.preset"
    preset.write_text("kind = lq_scalar\nc_bias_first = 0\nc_bias_second = 0\n")
    code, out = run(tmp_path, "v", "verify-duality", "--preset", str(preset), "--k-sigma", "0",
                    "--paths", "300", "--dt", "0.05", "--tuples", "2", "--seed", "1")
    assert code == 1
    failed = [str(out / name) for name in ("duality_first.csv", "duality_second.csv")]
    assert capsys.readouterr().err.strip() == "pass rule failed: " + ";".join(failed)
    for path in failed:
        assert all(row.endswith(",0") for row in open(path).read().splitlines()[1:])
