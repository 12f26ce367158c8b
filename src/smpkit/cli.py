"""Command-line entry point.

Every command resolves a preset plus the grid/ensemble options its
subcommand parser defines, runs the requested experiment, writes plain CSV
artifacts (one-line header, floats with 17 significant digits) plus a
manifest echoing those parsed options, and exits 0 only if the command's
pass rule holds.

Exit codes: 0 pass, 1 failed pass rule (the failing artifact is named on
stderr), 2 unknown preset, unusable configuration or inputs drawn from
different noise ensembles (one line on stderr).
"""

import argparse
import csv
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .adjoint import solve_first_adjoint
# the single-tuple names are not called here; perfbench/tracing.py wraps
# these lookups, so they stay imported
from .duality import (  # noqa: F401
    describe_first_test,
    describe_second_test,
    random_first_test,
    random_second_test,
    verify_first_identities,
    verify_first_identity,
    verify_second_identities,
    verify_second_identity,
)
from .errors import ConfigError, DomainError, EnsembleMismatchError, SmpKitError, StepRuleError
from .forward import Box, OpenLoop, TimeGrid, cost_paths, sample_brownian, simulate_controlled
from .maximum_principle import (
    check_admissible,
    check_condition,
    projected_gradient,
    second_order_data,
    solve_adjoints,
    spike_experiment,
    spike_window,
)
from .scenarios import (MatrixPreset, build_preset, check_lattice, dp_oracle_scalar, load_preset,
                        riccati_oracle)
from .second_order import mat_to_vec, max_asymmetry, solve_second_adjoint


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in header])


def write_manifest(cfg, outdir, wall_time, extra=None):
    """The tool version, the parsed options in name order, ``extra`` and the
    wall time, one ``key = value`` line each."""
    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"tool = smpkit {__version__}\n")
        for key, value in sorted(vars(cfg).items()):
            if isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            fh.write(f"{key} = {_fmt(value)}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key} = {value}\n")
        fh.write(f"wall_time_seconds = {wall_time:.3f}\n")
    return path


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas():
    """Name and version of the BLAS numpy was built against, from numpy's
    own build record ("unknown" where numpy keeps none)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _run_stats():
    """Peak resident memory of the process so far, the numpy version, the
    BLAS library and the BLAS thread variables as set in the environment
    (CSV bytes depend on the BLAS thread count), for the manifest
    (``ru_maxrss`` counts KB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
    threads = ";".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS
                       if var in os.environ)
    return {"peak_rss_mb": f"{peak_mb:.1f}", "numpy_version": np.__version__,
            "blas": _blas(), "blas_threads_env": threads or "default"}


DT_SLACK = 1e-9  # relative: how far n_steps * dt may miss the horizon T
MATRIX_COMMANDS = ("solve-second-adjoint", "verify-duality")  # need no control problem


def _grid_for(cfg, problem):
    """The time grid of the run.  Raises ConfigError for options no run can
    honour: a command the preset cannot run, or a grid other than asked for.
    Only the options the command declares are checked, off ``vars(cfg)``
    (a check is not a use).  ``main`` creates the output directory after."""
    options = vars(cfg)
    first_only = options.get("order") == "first"
    if isinstance(problem, MatrixPreset) and (cfg.command not in MATRIX_COMMANDS or first_only):
        command = cfg.command + (" --order first" if first_only else "")
        raise ConfigError(f"{command} needs a control problem; "
                          f"preset {cfg.preset} is a matrix preset")
    if cfg.command == "cross-validate-oracles" and problem.n_modes != 1:
        raise ConfigError(f"cross-validate-oracles needs a scalar preset; {cfg.preset} is not")
    for key, least in (("paths", 2), ("tuples", 1), ("max_iters", 0), ("t_points", 1),
                       ("u_points", 1), ("lattice_points", 2), ("workers", 1)):
        if key in options and options[key] < least:
            raise ConfigError(f"--{key.replace('_', '-')} must be at least {least} "
                              f"(got {options[key]})")
    for key, holds, rule in (
            ("seed", lambda v: v >= 0, "be a nonnegative integer"),
            ("k_sigma", lambda v: np.isfinite(v) and v >= 0, "be finite and nonnegative"),
            ("step", lambda v: np.isfinite(v) and v > 0, "be finite and positive"),
            ("dt", lambda v: np.isfinite(v) and v > 0, "be positive")):
        if key in options and not holds(options[key]):
            raise ConfigError(f"--{key.replace('_', '-')} must {rule} (got {options[key]})")
    T = problem.T
    n_steps = round(T / cfg.dt)
    if n_steps < 1 or abs(n_steps * cfg.dt - T) > DT_SLACK * T:
        raise ConfigError(f"--dt {cfg.dt} does not divide the horizon T = {T}")
    grid = TimeGrid(0.0, T, n_steps)
    try:  # the library's own rules, checked before there is any output
        if cfg.command == "spike-experiment":
            spike_window(_spike_time(cfg.tau, grid.dt), cfg.eps_list, grid)
            check_admissible(problem.control_set, np.full(problem.control_dim, cfg.u_alt))
        if cfg.command == "cross-validate-oracles":
            with np.errstate(invalid="ignore"):  # an infinite end makes NaN nodes
                check_lattice(np.linspace(cfg.lattice_lo, cfg.lattice_hi, cfg.lattice_points))
    except DomainError as exc:
        raise ConfigError(f"{cfg.command}: {exc}") from None
    return grid


def _spike_time(tau, dt):
    """The spike start: --tau rounded to the grid (a NaN or infinite --tau
    stays so, for :func:`spike_window` to reject)."""
    return float(np.round(tau / dt)) * dt


def _eps_list(raw):
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"--eps-list must be comma-separated numbers (got {raw})") from None


def _control_for(cfg, scenario, lq, grid):
    """The --control choice: zero, or the Riccati oracle's feedback."""
    if cfg.control == "riccati":
        return riccati_oracle(lq, grid).feedback()
    return OpenLoop(np.zeros((grid.n_steps, scenario.control_dim)))


def _trajectory(cfg, scenario, lq, ens):
    """The trajectory of ``scenario`` on ``ens`` under the --control choice."""
    return simulate_controlled(scenario, scenario.x0, _control_for(cfg, scenario, lq, ens.grid),
                               ens)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_simulate_forward(cfg, scenario, lq, grid, ens):
    traj = _trajectory(cfg, scenario, lq, ens)
    times = grid.times()
    rows = [
        {
            "step": j,
            "time": times[j],
            "mean_sq_norm": float(np.mean(np.sum(traj.states[:, j] ** 2, axis=-1))),
            "max_abs_coeff": float(np.max(np.abs(traj.states[:, j]))),
        }
        for j in range(grid.n_steps + 1)
    ]
    write_csv(os.path.join(cfg.outdir, "forward_stats.csv"),
              ["step", "time", "mean_sq_norm", "max_abs_coeff"], rows)
    costs = cost_paths(scenario, traj)
    write_csv(os.path.join(cfg.outdir, "cost_estimate.csv"), ["estimate", "stderr"],
              [{"estimate": float(costs.mean()),
                "stderr": float(costs.std(ddof=1) / np.sqrt(len(costs)))}])
    return 0, None


def cmd_solve_adjoint(cfg, scenario, lq, grid, ens):
    _, pair = _first_order(cfg, scenario, lq, ens)
    times = grid.times()
    n = scenario.n_modes
    header = ["step", "time"] + [f"{name}_mean_{k+1}" for name in "yY" for k in range(n)]
    rows = []
    for j in range(grid.n_steps):
        means = [float(v[:, k].mean()) for v in pair.at(j) for k in range(n)]
        rows.append({"step": j, "time": times[j]} | dict(zip(header[2:], means)))
    write_csv(os.path.join(cfg.outdir, "adjoint_stats.csv"), header, rows)
    return 0, None


def _second_adjoint(cfg, problem, lq, ens, first=None):
    """The solved second adjoint: of a matrix preset's equation on the
    Brownian paths' features, or of the linearization along the chosen
    control on the first adjoint's features.  ``first`` is the (trajectory,
    first adjoint) along that control when the caller already has them."""
    if isinstance(problem, MatrixPreset):
        return solve_second_adjoint(*problem.second_order_data(), ens)
    traj, pair = first or _first_order(cfg, problem, lq, ens)
    return solve_second_adjoint(problem.op, *second_order_data(problem, traj, pair), ens,
                                features=pair.features)


def _first_order(cfg, scenario, lq, ens):
    """Trajectory along the chosen control and its first adjoint pair."""
    traj = _trajectory(cfg, scenario, lq, ens)
    return traj, solve_first_adjoint(scenario, traj, ens)


def cmd_solve_second_adjoint(cfg, problem, lq, grid, ens):
    sa = _second_adjoint(cfg, problem, lq, ens)
    times = grid.times()
    n = sa.op.n_modes
    header = ["step", "time"] + [f"P_mean_{k+1}" for k in range(n * n)] + ["asymmetry"]
    rows = []
    for j in range(grid.n_steps + 1):
        P_mean = sa.P_mean(j)
        rows.append({"step": j, "time": times[j], "asymmetry": max_asymmetry(P_mean)}
                    | dict(zip(header[2:-1], mat_to_vec(P_mean))))
    write_csv(os.path.join(cfg.outdir, "second_adjoint_stats.csv"), header, rows)
    return 0, {"symmetry_drift": _fmt(sa.symmetry_drift)}


def cmd_verify_duality(cfg, problem, lq, grid, ens):
    failures = []
    header = ["identity", "n_paths", "dt", "lhs", "rhs", "residual", "stderr", "pass"]
    first = None

    def record(name, reports):
        path = os.path.join(cfg.outdir, f"{name}.csv")
        write_csv(path, header, [r.row() for r in reports])
        if not all(r.passed for r in reports):
            failures.append(path)

    # a matrix preset has no first-order equation: "both" runs the second
    if cfg.order in ("first", "both") and not isinstance(problem, MatrixPreset):
        first = _first_order(cfg, problem, lq, ens)
        tests = [describe_first_test(problem.op, ens, np.random.default_rng([cfg.seed, 1000 + i]))
                 for i in range(cfg.tuples)]
        record("duality_first", verify_first_identities(
            first[1], tests, bias_budget=problem.c_bias_first * grid.dt, k_sigma=cfg.k_sigma,
        ))

    if cfg.order in ("second", "both"):
        sa = _second_adjoint(cfg, problem, lq, ens, first)
        first = None  # past here only the first adjoint's features are read
        tests = [describe_second_test(sa.op, ens, np.random.default_rng([cfg.seed, 2000 + i]))
                 for i in range(cfg.tuples)]
        record("duality_second", verify_second_identities(
            sa, tests, bias_budget=problem.c_bias_second * grid.dt, k_sigma=cfg.k_sigma,
        ))

    if failures:
        return 1, {"failed": ";".join(failures)}
    return 0, None


def cmd_check_mp(cfg, scenario, lq, grid, ens):
    traj = _trajectory(cfg, scenario, lq, ens)
    pair, sa = solve_adjoints(scenario, traj, ens)
    control_set = scenario.control_set
    if isinstance(control_set, Box):
        # keep the control grid in the region the candidate control visits
        # max |u| by two reductions: no |u| array, on a broadcast shared control
        used = traj.controls_used
        span = max(1.0, float(max(used.max(), -used.min())) * 2.0)
        control_set = Box(np.maximum(control_set.lo, -span), np.minimum(control_set.hi, span))
    u_grid = control_set.sample_grid(cfg.u_points)
    t_grid = np.linspace(0, grid.n_steps - 1, cfg.t_points, dtype=int)
    report = check_condition(
        scenario, traj, pair, sa, u_grid, t_grid,
        bias_budget=scenario.c_bias_second * grid.dt, k_sigma=cfg.k_sigma,
    )
    path = os.path.join(cfg.outdir, "mp_report.csv")
    write_csv(path, ["t_index", "u", "mean_S", "stderr", "tolerance", "pass"],
              list(report.rows()))
    extra = {
        "max_violation": _fmt(report.max_violation),
        "argmax_t": report.argmax_violation[0],
        "argmax_u": " ".join(_fmt(c) for c in np.atleast_1d(report.argmax_violation[1])),
    }
    return (0 if report.passed else 1), ({"failed": path} | extra if not report.passed else extra)


def cmd_optimize(cfg, scenario, lq, grid, ens):
    init = OpenLoop(np.zeros((grid.n_steps, scenario.control_dim)))
    try:
        final, history = projected_gradient(
            scenario, scenario.x0, init, ens, step_rule=cfg.step, max_iters=cfg.max_iters,
        )
    except StepRuleError as exc:
        return 1, {"failed": str(exc)}
    path = os.path.join(cfg.outdir, "optimize_history.csv")
    write_csv(path, ["iter", "J", "stderr", "step_norm"], history.iterations)
    return 0, {"final_J": _fmt(history.final_cost)}


def cmd_spike_experiment(cfg, scenario, lq, grid, ens):
    control = _control_for(cfg, scenario, lq, grid)
    tau = _spike_time(cfg.tau, grid.dt)
    table = spike_experiment(
        scenario, scenario.x0, control,
        np.full(scenario.control_dim, cfg.u_alt), tau, cfg.eps_list, ens,
    )
    path = os.path.join(cfg.outdir, "spike_table.csv")
    write_csv(
        path,
        ["epsilon", "tau", "J_perturbed", "J_base", "delta_J", "predicted",
         "remainder", "remainder_over_eps", "stderr"],
        table.rows,
    )
    return 0, None


def cmd_cross_validate(cfg, scenario, lq, grid, ens):
    rc = riccati_oracle(lq, grid)
    lattice = np.linspace(cfg.lattice_lo, cfg.lattice_hi, cfg.lattice_points)
    span = 3.0
    u_grid = np.linspace(-span, span, cfg.u_points)
    dp = dp_oracle_scalar(scenario, lattice, u_grid, grid)
    v_rc, v_dp = rc.value_at(scenario.x0), dp.value_at(scenario.x0)
    gap = abs(v_dp - v_rc) / abs(v_rc)
    path = os.path.join(cfg.outdir, "oracle_cross.csv")
    write_csv(path, ["method", "value", "rel_gap", "pass"], [
        {"method": "riccati", "value": v_rc, "rel_gap": 0.0, "pass": 1},
        {"method": "dp_lattice", "value": v_dp, "rel_gap": gap, "pass": int(gap < 0.02)},
    ])
    return (0 if gap < 0.02 else 1), ({} if gap < 0.02 else {"failed": path})


COMMANDS = {
    "simulate-forward": cmd_simulate_forward,
    "solve-adjoint": cmd_solve_adjoint,
    "solve-second-adjoint": cmd_solve_second_adjoint,
    "verify-duality": cmd_verify_duality,
    "check-mp": cmd_check_mp,
    "optimize": cmd_optimize,
    "spike-experiment": cmd_spike_experiment,
    "cross-validate-oracles": cmd_cross_validate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smpkit",
        description="Spectral Monte Carlo experiments for stochastic control optimality",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset", required=True,
                       help="preset name in the preset directory, or a file path")
        if name != "cross-validate-oracles":  # the oracles sample no paths
            p.add_argument("--paths", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=0.005)
        p.add_argument("--outdir", default="smpkit_out")
        p.add_argument("--workers", type=int, default=1)  # unread; the benchmark passes it
        if name not in ("optimize", "cross-validate-oracles"):
            p.add_argument("--control", choices=("zero", "riccati"), default="zero")
        if name in ("verify-duality", "check-mp"):
            p.add_argument("--k-sigma", type=float, default=3.0, dest="k_sigma")
        if name == "verify-duality":
            p.add_argument("--order", choices=("first", "second", "both"), default="both")
            p.add_argument("--tuples", type=int, default=20)
        if name == "optimize":
            p.add_argument("--step", type=float, default=0.8)
            p.add_argument("--max-iters", type=int, default=200, dest="max_iters")
        if name == "check-mp":
            p.add_argument("--u-points", type=int, default=21, dest="u_points")
            p.add_argument("--t-points", type=int, default=8, dest="t_points")
        if name == "spike-experiment":
            p.add_argument("--tau", type=float, default=1.0 / 3.0)
            p.add_argument("--eps-list", default="0.2,0.1,0.05,0.025", dest="eps_list")
            p.add_argument("--u-alt", type=float, default=0.5, dest="u_alt")
        if name == "cross-validate-oracles":
            p.add_argument("--lattice-points", type=int, default=401, dest="lattice_points")
            p.add_argument("--lattice-lo", type=float, default=-2.0, dest="lattice_lo")
            p.add_argument("--lattice-hi", type=float, default=3.0, dest="lattice_hi")
            p.add_argument("--u-points", type=int, default=41, dest="u_points")
    return parser


def _joined_negative_values(argv):
    """``argv`` with a number that starts with "-" and follows an option
    joined to it, ``--u-alt -inf`` as ``--u-alt=-inf``: argparse takes a
    token such as ``-inf`` or ``-1e-3`` for an option name.  Every option
    here takes one value."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cfg = build_parser().parse_args(_joined_negative_values(argv))
    start = time.time()
    try:
        if cfg.command == "spike-experiment":
            cfg.eps_list = _eps_list(cfg.eps_list)
        problem, lq = build_preset(load_preset(cfg.preset))
        grid = _grid_for(cfg, problem)
        # only a run that passed its checks leaves an output directory
        os.makedirs(cfg.outdir, exist_ok=True)
        # one ensemble per run, for every command that samples paths
        ens = sample_brownian(grid, cfg.paths, cfg.seed) if "paths" in vars(cfg) else None
        code, extra = COMMANDS[cfg.command](cfg, problem, lq, grid, ens)
    except (FileNotFoundError, ConfigError, EnsembleMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmpKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    used = {"n_steps": grid.n_steps, "dt_used": _fmt(grid.dt)}
    write_manifest(cfg, cfg.outdir, time.time() - start, used | _run_stats() | (extra or {}))
    if code != 0 and extra and "failed" in extra:
        print(f"pass rule failed: {extra['failed']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
