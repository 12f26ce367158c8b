"""Whole-history reference for one projected-gradient iteration.

This is the update ``smpkit.maximum_principle._gradient_step`` formed
before it went step by step: the gradient of every step is gathered into
one (P, N, m) history from the step reads ``pair.at(j)``, and the step,
the projection, the change and its square are whole-array passes over it.
The equivalence tests compare the per-step update against it."""

import numpy as np

from smpkit.adjoint import solve_first_adjoint
from smpkit.forward import OpenLoop, cost_paths, simulate_controlled, step_major
from smpkit.maximum_principle import convex_gradient


def whole_history_gradient_step(scenario, x0, u, ens, step):
    """(new values, cost mean, its standard error, step norm)."""
    grid = ens.grid
    m = scenario.control_dim
    traj = simulate_controlled(scenario, x0, OpenLoop(u), ens)
    costs = cost_paths(scenario, traj)
    pair = solve_first_adjoint(scenario, traj, ens)
    grad = step_major((ens.n_paths, grid.n_steps, m))
    for j in range(grid.n_steps):
        grad[:, j] = convex_gradient(scenario, j, traj.states[:, j], traj.controls_used[:, j],
                                     *pair.at(j), grid=grid)
    grad *= step
    grad += traj.controls_used
    new_u = scenario.control_set.projection(
        grad.swapaxes(0, 1).reshape(-1, m)
    ).reshape((grid.n_steps, ens.n_paths, m)).swapaxes(0, 1)
    change = new_u - traj.controls_used
    change **= 2
    step_norm = float(np.sqrt(np.mean(np.sum(change, axis=-1)) * grid.dt * grid.n_steps))
    return new_u, float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs))), step_norm
