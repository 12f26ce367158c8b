"""Dense reference for the first-order sweep.

It runs the same ``regression_sweep`` as ``solve_first_adjoint`` but stores
the per-path ``y``, ``Y`` and driver histories in full, as the solver did
before it kept them as regression coefficients.  The driver formula is a
local copy, so the reference shares no driver code with the solver under
test.  With constant Jacobians (every scenario the reference takes),
y_j = X_j beta_y - dt g_x with beta_y = beta_mean + dt (beta_mean a_x +
beta_mart b_x), and the next target is handed to the sweep in that affine
form.  The coefficient-form tests compare every step slice against it."""

import numpy as np

from smpkit.adjoint import (
    FeatureAffine,
    RegressionBasis,
    StepFeatures,
    fitted,
    regression_sweep,
)


def dense_first_adjoint(scenario, traj, ens, basis=None):
    """Returns (y, Y, driver): (P, N+1, n), (P, N, n) and (P, N, n)."""
    assert scenario.constant_jacobians
    basis = basis or RegressionBasis()
    grid = ens.grid
    n, N, P = scenario.n_modes, grid.n_steps, ens.n_paths
    dt, times = grid.dt, grid.times()
    features = StepFeatures(basis, traj.states, ens)
    y = np.empty((P, N + 1, n))
    Y = np.empty((P, N, n))
    driver = np.empty((P, N, n))
    y[:, N] = -scenario.grad_terminal(traj.states[:, N])

    def update(j, beta_mean, beta_mart):
        X = features.at(j)
        y_hat, Y_j = fitted(X, beta_mean), fitted(X, beta_mart)
        t, xj, uj = times[j], traj.states[:, j], traj.controls_used[:, j]
        a_x = scenario.jac_x("a", t, xj, uj)
        b_x = scenario.jac_x("b", t, xj, uj)
        g_x = scenario.grad_x_running(t, xj, uj)
        driver[:, j] = (
            -np.einsum("pij,pi->pj", a_x, y_hat)
            - np.einsum("pij,pi->pj", b_x, Y_j)
            + g_x
        )
        beta_y = beta_mean + dt * (beta_mean @ a_x[0] + beta_mart @ b_x[0])
        rest = -dt * g_x
        y[:, j] = fitted(X, beta_y) + rest
        Y[:, j] = Y_j
        return FeatureAffine(beta_y, rest)

    decay = np.exp(scenario.op.eigenvalues * dt)
    regression_sweep(features, y[:, N], decay, update)
    return y, Y, driver
