import filecmp
import os

import pytest

from smpkit.cli import main


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
                    "--paths", "100", "--dt", "0.005", "--seed", "1")
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
