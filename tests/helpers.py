"""Shared builders for the test suite.

The heavyweight solves (optimal-pair adjoints, the optimizer run) are cached
per process so the module tests and the acceptance gate share one
computation."""

import dataclasses
import importlib.util
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np

from smpkit.forward import Box, OpenLoop, Scenario, TimeGrid, sample_brownian, simulate_controlled
from smpkit.maximum_principle import projected_gradient, solve_adjoints
from smpkit.scenarios import make_lq_scalar, riccati_oracle


def load_perfbench(name):
    """perfbench/<name>.py, loaded from its file (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def traced_peak(fn, *args, **kwargs):
    """Peak bytes tracemalloc traces while ``fn(*args, **kwargs)`` runs
    (numpy's array buffers included), and what the call returned."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def per_path_jacobians(scenario):
    """``scenario`` with its four Jacobian callbacks batched: each returns
    the (P, n, k) stack of its one matrix, so the solvers take their
    per-path branch on the same values."""
    def batched(cb):
        def jac(t, x, u):
            m = np.asarray(cb(t, x, u), dtype=float)
            return np.broadcast_to(m, (x.shape[0],) + m.shape[-2:])
        return jac

    return dataclasses.replace(scenario, **{
        name: batched(getattr(scenario, name))
        for name in ("drift_x", "drift_u", "diffusion_x", "diffusion_u")
    })


@lru_cache(maxsize=4)
def lq_optimum_bundle(n_steps=200, n_paths=20_000, seed=29):
    """LQ preset driven by the Riccati feedback, with both adjoints solved."""
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, seed)
    oracle = riccati_oracle(params, grid)
    traj = simulate_controlled(scenario, scenario.x0, oracle.feedback(), ens)
    pair, sa = solve_adjoints(scenario, traj, ens)
    return scenario, params, grid, ens, oracle, traj, pair, sa


@lru_cache(maxsize=2)
def lq_optimizer_run(n_steps=200, n_paths=20_000, seed=43, step=0.8, max_iters=200):
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, seed)
    oracle = riccati_oracle(params, grid)
    final, history = projected_gradient(
        scenario, scenario.x0, OpenLoop(np.zeros((n_steps, 1))), ens,
        step_rule=step, max_iters=max_iters,
    )
    return history, oracle.value_at(scenario.x0)


def deterministic_data_scenario(op, c, v, b_slope=0.0, b_const=0.0):
    """Scenario whose adjoint data are deterministic: g_x = c (state enters g
    only through <c, x>), h_x = v, a_x = 0, b_x = b_slope * I."""
    n = op.n_modes
    return Scenario(
        op=op,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: b_slope * x + b_const,
        running_cost=lambda t, x, u: x @ c,
        terminal_cost=lambda x: x @ v,
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
        running_grad_x=lambda t, x, u: np.broadcast_to(c, x.shape),
        running_grad_u=lambda t, x, u: np.zeros((x.shape[0], 1)),
        terminal_grad=lambda x: np.broadcast_to(v, x.shape),
        drift_x=lambda t, x, u: np.zeros((n, n)),
        diffusion_x=lambda t, x, u: b_slope * np.eye(n),
        drift_u=lambda t, x, u: np.zeros((n, 1)),
        diffusion_u=lambda t, x, u: np.zeros((n, 1)),
    )
