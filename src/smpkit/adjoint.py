"""Backward solver for the vector-valued adjoint equation.

The backward dynamics dy = -A*y dt + f(t, y, Y) dt + Y dw with terminal data
y(T) is integrated by one-step explicit backward Euler on its
variation-of-constants form.  Conditional expectations are estimated by
global least-squares regression on polynomial features of the forward state
(the standard regression Monte Carlo estimator):

    yhat_j = E_j[ S*(dt) y_{j+1} ]                       (features of x_j)
    Y_j    = E_j[ (S*(dt) y_{j+1} - yhat_j) dw_j ] / dt  (same features)
    y_j    = yhat_j - dt * f(t_j, yhat_j, Y_j)

Two estimator details matter.  The semigroup factor inside the martingale
target makes the discrete duality pairing exact up to regression error,
uniformly over stiff modes.  Centering the martingale target by yhat_j
leaves the estimand unchanged but removes its dominant variance term.  The
driver values used at each step are recorded so identity checks can pair
against exactly what the sweep did.

Both adjoint orders run this scheme through :func:`regression_sweep` and
supply only their driver update.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateBasisError, DimensionError, EnsembleMismatchError
from .forward import step_major


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression features: 1, x_k, x_k x_l on the leading modes."""

    degree: int = 2
    mode_cap: int = 4
    ridge: float = 1e-8

    def n_features(self, n_modes):
        m = min(n_modes, self.mode_cap)
        count = 1
        if self.degree >= 1:
            count += m
        if self.degree >= 2:
            count += m * (m + 1) // 2
        return count

    def features(self, x):
        x = np.asarray(x, dtype=float)
        p, n = x.shape
        m = min(n, self.mode_cap)
        cols = [np.ones((p, 1))]
        if self.degree >= 1:
            cols.append(x[:, :m])
        if self.degree >= 2:
            cols.extend(
                x[:, k : k + 1] * x[:, l : l + 1] for k in range(m) for l in range(k, m)
            )
        return np.concatenate(cols, axis=1)


class RidgeSolver:
    """Normal-equation ridge solver with a factorization shared across
    several target sets on the same features."""

    def __init__(self, features, ridge):
        self.X = np.asarray(features, dtype=float)
        if ridge < 0:
            raise DegenerateBasisError("ridge must be nonnegative")
        gram = self.X.T @ self.X + ridge * np.eye(self.X.shape[1])
        try:
            self._chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise DegenerateBasisError("singular regression normal matrix") from exc

    def solve(self, targets):
        Z = np.asarray(targets, dtype=float)
        if Z.shape[0] != self.X.shape[0]:
            raise DimensionError("features and targets disagree on row count")
        rhs = self.X.T @ Z
        beta = np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, rhs))
        return beta, self.X @ beta


def lsmc_regress(features, targets, ridge):
    """Ridge least squares; returns (coefficients, fitted values).

    Raises when the (ridge-shifted) normal matrix is not positive definite.
    """
    return RidgeSolver(features, ridge).solve(targets)


@dataclass
class AdjointPair:
    """Backward pair (y, Y) on the grid, per path; ``driver`` holds the f
    values the sweep used at each step.  The histories are stored step-major
    (see :func:`smpkit.forward.step_major`)."""

    grid: object
    y: np.ndarray                      # (n_paths, n_steps + 1, n)
    Y: np.ndarray                      # (n_paths, n_steps, n)
    driver: Optional[np.ndarray] = None  # (n_paths, n_steps, n)
    fingerprint: Optional[tuple] = None

    @property
    def n_paths(self):
        return self.y.shape[0]


def check_same_ensemble(*objects):
    prints = [obj.fingerprint for obj in objects if getattr(obj, "fingerprint", None) is not None]
    for fp in prints[1:]:
        if fp != prints[0]:
            raise EnsembleMismatchError(f"seed lineage differs: {prints[0]} vs {fp}")


def regression_sweep(basis, states, terminal, decay, ens, update):
    """One-step regression scheme (Gobet, Lemor and Warin, Ann. Appl. Probab.
    2005) from ``target = terminal`` (P, k) back to step 0.  Step j fits the
    mean and the martingale part of ``target * decay`` on the features X of
    ``states[:, j]`` (P, N+1, d), then ``update(j, X, beta_mean, mean,
    beta_mart, mart)`` applies the driver and returns the next target."""
    grid = ens.grid
    n_feat = basis.n_features(states.shape[2])
    if n_feat > ens.n_paths / 10:
        raise DegenerateBasisError(
            f"{n_feat} features against {ens.n_paths} paths violates the over-fit guard"
        )
    target = terminal
    for j in range(grid.n_steps - 1, -1, -1):
        solver = RidgeSolver(basis.features(states[:, j]), basis.ridge)
        propagated = target * decay
        beta_mean, mean = solver.solve(propagated)
        # martingale-increment form: centering by the conditional mean leaves
        # the estimand unchanged and strips the dominant variance term
        beta_mart, mart = solver.solve(
            (propagated - mean) * (ens.increments[:, j : j + 1] / grid.dt)
        )
        target = update(j, solver.X, beta_mean, mean, beta_mart, mart)


def solve_first_adjoint(scenario, trajectory, ens, basis=None):
    """Regression sweep for the adjoint pair along an optimal-candidate
    trajectory, with terminal data -h_x and driver -a_x*y - b_x*Y + g_x."""
    basis = basis or RegressionBasis()
    check_same_ensemble(trajectory, ens)
    op = scenario.op
    grid = ens.grid
    n, N, P = op.n_modes, grid.n_steps, ens.n_paths
    dt = grid.dt
    times = grid.times()

    y = step_major((P, N + 1, n))
    Y = step_major((P, N, n))
    driver = step_major((P, N, n))
    y[:, N] = -scenario.grad_terminal(trajectory.states[:, N])

    def update(j, X, beta_mean, y_hat, beta_mart, Y_j):
        t, xj, uj = times[j], trajectory.states[:, j], trajectory.controls_used[:, j]
        a_x = scenario.jac_x("a", t, xj, uj)
        b_x = scenario.jac_x("b", t, xj, uj)
        driver[:, j] = (
            -np.einsum("pij,pi->pj", a_x, y_hat)
            - np.einsum("pij,pi->pj", b_x, Y_j)
            + scenario.grad_x_running(t, xj, uj)
        )
        y[:, j] = y_hat - dt * driver[:, j]
        Y[:, j] = Y_j
        return y[:, j]

    decay = np.exp(op.eigenvalues * dt)
    regression_sweep(basis, trajectory.states, y[:, N], decay, ens, update)
    return AdjointPair(grid, y, Y, driver, ens.fingerprint)


def deterministic_first_adjoint(op, y_terminal, f_path, grid):
    """Deterministic-data backward recursion: with the expectation dropped the
    sweep reduces to y_j = S*(dt) y_{j+1} - dt f_j, which telescopes into the
    semigroup representation of y against (y_T, f).  Returns (n_steps+1, n)."""
    N = grid.n_steps
    dt = grid.dt
    y_terminal = op.check_vector(np.asarray(y_terminal, dtype=float))
    decay = np.exp(op.eigenvalues * dt)
    out = np.empty((N + 1, op.n_modes))
    out[N] = y_terminal
    if f_path is None:
        f_path = np.zeros((N, op.n_modes))
    f_path = np.asarray(f_path, dtype=float)
    if f_path.shape != (N, op.n_modes):
        raise DimensionError(f"f_path must have shape {(N, op.n_modes)}")
    for j in range(N - 1, -1, -1):
        out[j] = decay * out[j + 1] - dt * f_path[j]
    return out
