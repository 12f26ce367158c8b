"""Dense reference for the first-order sweep.

It runs the same ``regression_sweep`` as ``solve_first_adjoint`` but stores
the per-path ``y``, ``Y`` and driver histories in full, as the solver did
before it kept them as regression coefficients.  The driver formula is a
local copy, so the reference shares no driver code with the solver under
test.  With one-matrix Jacobians (every scenario the reference takes),
y_j = X_j beta_y - dt g_x with beta_y = beta_mean + dt (beta_mean a_x +
beta_mart b_x), and the next target is handed to the sweep in that affine
form; y_j and Y_j come from one product per step.  The coefficient-form
tests compare every step read against it.

``dense_pair`` is the one hand-built pair of the suite: an ``AdjointPair``
whose read hands out the step slices of dense arrays."""

import numpy as np

from smpkit.adjoint import (
    AdjointPair,
    FeatureAffine,
    RegressionBasis,
    StepFeatures,
    regression_sweep,
)


def dense_first_adjoint(scenario, traj, ens, basis=None):
    """Returns (y, Y, driver): (P, N+1, n), (P, N, n) and (P, N, n)."""
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
        y_hat, Y_j = X @ beta_mean, X @ beta_mart
        t, xj, uj = times[j], traj.states[:, j], traj.controls_used[:, j]
        a_x = scenario.jacobian("a", "x", t, xj, uj)
        b_x = scenario.jacobian("b", "x", t, xj, uj)
        assert a_x.shape == b_x.shape == (n, n)
        g_x = scenario.grad_x_running(t, xj, uj)
        driver[:, j] = (
            -np.einsum("pij,pi->pj", np.broadcast_to(a_x, (P, n, n)), y_hat)
            - np.einsum("pij,pi->pj", np.broadcast_to(b_x, (P, n, n)), Y_j)
            + g_x
        )
        beta_y = beta_mean + dt * (beta_mean @ a_x + beta_mart @ b_x)
        rest = -dt * g_x
        # y_j and Y_j from one product on [beta_y | beta_mart], as the
        # solver reads a step
        fit = X @ np.concatenate([beta_y, beta_mart], axis=1)
        y[:, j] = fit[:, :n] + rest
        Y[:, j] = fit[:, n:]
        return FeatureAffine(beta_y, rest)

    decay = np.exp(scenario.op.eigenvalues * dt)
    regression_sweep(features, y[:, N], decay, update)
    return y, Y, driver


def dense_pair(grid, y, Y, driver, fingerprint=None):
    """An ``AdjointPair`` over dense y (P, N+1, n), Y and driver (P, N, n):
    ``at(j)`` hands out their step slices, and ``y_T`` is ``y[:, N]``."""
    def read(j, with_driver):
        out = (y[:, j], Y[:, j])
        return out + (driver[:, j],) if with_driver else out

    return AdjointPair(grid, y[:, grid.n_steps], read, fingerprint)


def y_at(pair, j):
    """y_j at any grid step 0 <= j <= N: the terminal value at N, else the
    y half of ``pair.at(j)``."""
    return pair.y_T if j == pair.grid.n_steps else pair.at(j)[0]
