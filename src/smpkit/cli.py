"""Command-line entry point.

Every command resolves a preset plus grid/ensemble options into a RunConfig,
runs the requested experiment, writes plain CSV artifacts (one-line header,
floats with 17 significant digits) plus a manifest echoing the resolved
configuration, and exits 0 only if the command's pass rule holds.

Exit codes: 0 pass, 1 failed pass rule (the failing artifact is named on
stderr), 2 unknown preset or unusable configuration (one line on stderr).
"""

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass

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
from .errors import ConfigError, SmpKitError, StepRuleError
from .forward import OpenLoop, TimeGrid, cost_paths, sample_brownian, simulate_controlled
from .maximum_principle import (
    check_condition,
    projected_gradient,
    second_order_data,
    solve_adjoints,
    spike_experiment,
)
from .scenarios import build_preset, dp_oracle_scalar, load_preset, riccati_oracle
from .second_order import mat_to_vec, max_asymmetry, solve_second_adjoint
from .spectral import OperatorSpec


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


@dataclass
class RunConfig:
    command: str
    preset: str
    paths: int
    dt: float
    seed: int
    outdir: str
    workers: int = 1
    control: str = "zero"
    tuples: int = 20
    order: str = "both"
    k_sigma: float = 3.0
    step: float = 0.8
    max_iters: int = 200
    tau: float = 1.0 / 3.0
    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    u_alt: float = 0.5
    u_points: int = 21
    t_points: int = 8
    lattice_points: int = 401
    lattice_lo: float = -2.0
    lattice_hi: float = 3.0

    def items(self):
        for key in sorted(vars(self)):
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(_fmt(v) for v in value)
            yield key, _fmt(value)


def write_manifest(cfg, outdir, wall_time, extra=None):
    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write(f"tool = smpkit {__version__}\n")
        for key, value in cfg.items():
            fh.write(f"{key} = {value}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key} = {value}\n")
        fh.write(f"wall_time_seconds = {wall_time:.3f}\n")
    return path


DT_SLACK = 1e-9  # relative: how far n_steps * dt may miss the horizon T


def _grid_for(cfg, preset_cfg):
    """The time grid of the run.  Raises ConfigError for options no run can
    honour, instead of running on a grid other than the one asked for."""
    if cfg.paths < 2:
        raise ConfigError(f"--paths must be at least 2 (got {cfg.paths})")
    if cfg.tuples < 1:
        raise ConfigError(f"--tuples must be at least 1 (got {cfg.tuples})")
    T = float(preset_cfg.get("T", 1.0))
    if not (np.isfinite(cfg.dt) and cfg.dt > 0):
        raise ConfigError(f"--dt must be positive (got {cfg.dt})")
    n_steps = round(T / cfg.dt)
    if n_steps < 1 or abs(n_steps * cfg.dt - T) > DT_SLACK * T:
        raise ConfigError(f"--dt {cfg.dt} does not divide the horizon T = {T}")
    return TimeGrid(0.0, T, n_steps)


def _resolve(cfg, preset_cfg, grid):
    """Build the preset's scenario and the ensemble."""
    scenario, lq = build_preset(preset_cfg)
    ens = sample_brownian(grid, cfg.paths, cfg.seed)
    return scenario, lq, ens


def _control_for(cfg, scenario, lq, grid):
    if cfg.control == "zero":
        return OpenLoop(np.zeros((grid.n_steps, scenario.control_dim)))
    if cfg.control == "riccati":
        return riccati_oracle(lq, grid).feedback()
    raise SmpKitError(f"unknown control choice: {cfg.control}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_simulate_forward(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    control = _control_for(cfg, scenario, lq, grid)
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
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
    write_csv(
        os.path.join(cfg.outdir, "cost_estimate.csv"),
        ["estimate", "stderr"],
        [{"estimate": float(costs.mean()),
          "stderr": float(costs.std(ddof=1) / np.sqrt(len(costs)))}],
    )
    return 0, None


def cmd_solve_adjoint(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    control = _control_for(cfg, scenario, lq, grid)
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    pair = solve_first_adjoint(scenario, traj, None, ens)
    times = grid.times()
    n = scenario.n_modes
    header = ["step", "time"] + [f"y_mean_{k+1}" for k in range(n)] + [
        f"Y_mean_{k+1}" for k in range(n)
    ]
    rows = []
    for j in range(grid.n_steps):
        row = {"step": j, "time": times[j]}
        for k in range(n):
            row[f"y_mean_{k+1}"] = float(pair.y[:, j, k].mean())
            row[f"Y_mean_{k+1}"] = float(pair.Y[:, j, k].mean())
        rows.append(row)
    write_csv(os.path.join(cfg.outdir, "adjoint_stats.csv"), header, rows)
    return 0, None


def _second_order_inputs(cfg, preset_cfg, scenario, lq, grid, ens, first=None):
    """Matrix-equation data: either straight from a matrix preset or the
    linearization along the chosen control.  ``first`` is the (trajectory,
    first adjoint) along that control when the caller already has them."""
    if preset_cfg.get("kind") == "matrix_scalar":
        op = OperatorSpec(1, np.array([0.0]))
        kappa = float(preset_cfg.get("kappa", 0.5))
        J = None
        K = np.array([[kappa]])
        F = np.array([[float(preset_cfg.get("forcing", 0.0))]])
        P_T = np.array([[float(preset_cfg.get("terminal", 1.0))]])
        return op, J, K, F, P_T, None
    traj, pair = first or _first_order(cfg, scenario, lq, grid, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    return scenario.op, J, K, F, P_T, traj


def _first_order(cfg, scenario, lq, grid, ens):
    """Trajectory along the chosen control and its first adjoint pair."""
    control = _control_for(cfg, scenario, lq, grid)
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    return traj, solve_first_adjoint(scenario, traj, None, ens)


def cmd_solve_second_adjoint(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    op, J, K, F, P_T, traj = _second_order_inputs(cfg, preset_cfg, scenario, lq, grid, ens)
    feature_states = None if traj is None else traj.states
    sa = solve_second_adjoint(op, J, K, F, P_T, ens, feature_states=feature_states)
    times = grid.times()
    n = op.n_modes
    header = ["step", "time"] + [f"P_mean_{k+1}" for k in range(n * n)] + ["asymmetry"]
    rows = []
    for j in range(grid.n_steps + 1):
        P_mean = sa.P_mean(j)
        row = {"step": j, "time": times[j], "asymmetry": max_asymmetry(P_mean)}
        vec = mat_to_vec(P_mean)
        for k in range(n * n):
            row[f"P_mean_{k+1}"] = vec[k]
        rows.append(row)
    write_csv(os.path.join(cfg.outdir, "second_adjoint_stats.csv"), header, rows)
    return 0, {"symmetry_drift": _fmt(sa.symmetry_drift)}


def cmd_verify_duality(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    kind = preset_cfg.get("kind")
    failures = []
    c_first = float(preset_cfg.get("c_bias_first", 0.2))
    c_second = float(preset_cfg.get("c_bias_second", 0.5))
    header = ["identity", "n_paths", "dt", "lhs", "rhs", "residual", "stderr", "pass"]
    first = None

    def record(name, reports):
        path = os.path.join(cfg.outdir, f"{name}.csv")
        write_csv(path, header, [r.row() for r in reports])
        if not all(r.passed for r in reports):
            failures.append(path)

    if cfg.order in ("first", "both") and kind != "matrix_scalar":
        first = _first_order(cfg, scenario, lq, grid, ens)
        tests = [describe_first_test(scenario.op, ens, np.random.default_rng([cfg.seed, 1000 + i]))
                 for i in range(cfg.tuples)]
        record("duality_first", verify_first_identities(
            first[1], scenario.op, None, None, tests, ens,
            bias_budget=c_first * grid.dt, k_sigma=cfg.k_sigma,
        ))

    if cfg.order in ("second", "both"):
        op, J, K, F, P_T, traj = _second_order_inputs(cfg, preset_cfg, scenario, lq, grid, ens,
                                                      first)
        feature_states = None if traj is None else traj.states
        sa = solve_second_adjoint(op, J, K, F, P_T, ens, feature_states=feature_states)
        tests = [describe_second_test(op, ens, np.random.default_rng([cfg.seed, 2000 + i]))
                 for i in range(cfg.tuples)]
        record("duality_second", verify_second_identities(
            sa, op, J, K, F, P_T, tests, ens,
            bias_budget=c_second * grid.dt, k_sigma=cfg.k_sigma,
        ))

    if failures:
        return 1, {"failed": ";".join(failures)}
    return 0, None


def cmd_check_mp(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    control = _control_for(cfg, scenario, lq, grid)
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    pair, sa = solve_adjoints(scenario, traj, ens)
    if hasattr(scenario.control_set, "lo"):
        # keep the control grid in the region the candidate control visits
        span = max(1.0, float(np.max(np.abs(traj.controls_used))) * 2.0)
        lo = np.maximum(scenario.control_set.lo, -span)
        hi = np.minimum(scenario.control_set.hi, span)
        axes = [np.linspace(l, h, cfg.u_points) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        u_grid = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        u_grid = scenario.control_set.sample_grid(cfg.u_points)
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


def cmd_optimize(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
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


def cmd_spike_experiment(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    control = _control_for(cfg, scenario, lq, grid)
    tau = round(cfg.tau / grid.dt) * grid.dt
    table = spike_experiment(
        scenario, scenario.x0, control,
        np.full(scenario.control_dim, cfg.u_alt), tau, list(cfg.eps_list), ens,
    )
    path = os.path.join(cfg.outdir, "spike_table.csv")
    write_csv(
        path,
        ["epsilon", "tau", "J_perturbed", "J_base", "delta_J", "predicted",
         "remainder", "remainder_over_eps", "stderr"],
        table.rows,
    )
    return 0, None


def cmd_cross_validate(cfg, preset_cfg, grid):
    scenario, lq, ens = _resolve(cfg, preset_cfg, grid)
    if scenario.n_modes != 1:
        return 2, {"failed": "oracle cross-validation needs a scalar preset"}
    rc = riccati_oracle(lq, grid)
    lattice = np.linspace(cfg.lattice_lo, cfg.lattice_hi, cfg.lattice_points)
    span = 3.0
    u_grid = np.linspace(-span, span, cfg.u_points)
    dp = dp_oracle_scalar(scenario, lattice, u_grid, grid)
    x0 = scenario.x0
    v_rc = rc.value_at(x0)
    v_dp = dp.value_at(x0)
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
        p.add_argument("--paths", type=int, default=10_000)
        p.add_argument("--dt", type=float, default=0.005)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--outdir", default="smpkit_out")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--control", choices=("zero", "riccati"), default="zero")
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if v is not None}
    if "eps_list" in kwargs and isinstance(kwargs["eps_list"], str):
        kwargs["eps_list"] = tuple(float(tok) for tok in kwargs["eps_list"].split(","))
    cfg = RunConfig(**{k: v for k, v in kwargs.items() if k in RunConfig.__dataclass_fields__})
    os.makedirs(cfg.outdir, exist_ok=True)
    start = time.time()
    try:
        preset_cfg = load_preset(cfg.preset)
        grid = _grid_for(cfg, preset_cfg)
        code, extra = COMMANDS[cfg.command](cfg, preset_cfg, grid)
    except (FileNotFoundError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmpKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    used = {"n_steps": grid.n_steps, "dt_used": _fmt(grid.dt)}
    write_manifest(cfg, cfg.outdir, time.time() - start, used | (extra or {}))
    if code != 0 and extra and "failed" in extra:
        print(f"pass rule failed: {extra['failed']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
