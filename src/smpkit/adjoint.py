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
leaves the estimand unchanged but removes its dominant variance term.

Both fits of a step come from one moment block.  With the features X
(P, F), the target Z = S*(dt) y_{j+1} and W = [X; X*dw] stacked by rows,
W X gives the Gram matrix G = X'X and the dw-weighted Gram E = (X*dw)'X,
and W Z gives X'Z and (X*dw)'Z.  The centring identity

    X'((Z - X beta_mean) * dw) = (X*dw)'Z - E beta_mean

turns the centred martingale fit into (G + ridge)^-1 ((X*dw)'Z - E
beta_mean) / dt, so no per-path residual is formed.  When the target is
itself affine in the next step's features, Z = X_{j+1} beta, its moments are
the cross moments (W X_{j+1}) beta, and the sweep touches no per-path
target at all; the second-order sweep runs that way in coefficient mode.

Both adjoint orders run this scheme through :func:`regression_sweep` and
supply only their driver update.  The sweep keeps y per path, since it is
the next regression target, but Y and the driver only as the per-step
coefficients of the two fits: a step slice of either is re-evaluated on
demand through :class:`StepHistory`, the driver by the same function the
sweep's update calls, so identity checks pair against exactly what the
sweep did.
"""

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

    def features(self, x, out=None):
        """Features of the states ``x`` (P, d) as a (P, F) view of contiguous
        (F, P) rows (``out`` if given), so each feature is one contiguous row
        product and ``features(x).T`` is the row block the sweep's moments
        are taken on."""
        x = np.asarray(x, dtype=float)
        p, n = x.shape
        m = min(n, self.mode_cap)
        rows = np.empty((self.n_features(n), p)) if out is None else out
        rows[0] = 1.0
        if self.degree >= 1:
            rows[1 : 1 + m] = x[:, :m].T
        if self.degree >= 2:
            q = 1 + m
            for k in range(m):  # x_k x_l for l >= k, in row-major order
                np.multiply(rows[1 + k], rows[1 + k : 1 + m], out=rows[q : q + m - k])
                q += m - k
        return rows.T


class RidgeSolver:
    """Normal-equation ridge solver built from a (F, F) Gram block X'X and
    shared across several moment sets X'Z on the same features.  The
    Cholesky factor L of the ridge-shifted Gram matrix is inverted once, so
    each set is solved with two small matmuls, L^-T (L^-1 X'Z)."""

    def __init__(self, gram, ridge):
        gram = np.asarray(gram, dtype=float)
        if ridge < 0:
            raise DegenerateBasisError("ridge must be nonnegative")
        try:
            self._inv_chol = np.linalg.inv(
                np.linalg.cholesky(gram + ridge * np.eye(gram.shape[0]))
            )
        except np.linalg.LinAlgError as exc:
            raise DegenerateBasisError("singular regression normal matrix") from exc

    def solve(self, moments):
        """Coefficients for the moments X'Z (F, k)."""
        return self._inv_chol.T @ (self._inv_chol @ moments)


def lsmc_regress(features, targets, ridge):
    """Ridge least squares; returns (coefficients, fitted values).

    Raises when the (ridge-shifted) normal matrix is not positive definite.
    """
    X = np.asarray(features, dtype=float)
    Z = np.asarray(targets, dtype=float)
    if Z.shape[0] != X.shape[0]:
        raise DimensionError("features and targets disagree on row count")
    beta = RidgeSolver(X.T @ X, ridge).solve(X.T @ Z)
    return beta, X @ beta


class StepFeatures:
    """Regression features of a state history ``states`` (P, N+1, d), built
    one step at a time.  The sweep builds step j's features from its basis
    and states, and coefficient-form histories re-evaluate their step slices
    through ``at(j)``, which gives the same values.  The
    features of the last full-ensemble step are kept, so several histories
    read at one step build them once."""

    def __init__(self, basis, states):
        self.basis = basis
        self.states = states
        self._last = (None, None)

    @property
    def n_features(self):
        return self.basis.n_features(self.states.shape[2])

    def at(self, j, paths=slice(None)):
        """Features of ``states[paths, j]``; a subset of the paths is taken
        before the features are built."""
        if not (isinstance(paths, slice) and paths == slice(None)):
            return self.basis.features(self.states[paths, j])
        if self._last[0] != j:
            self._last = (j, self.basis.features(self.states[:, j]))
        return self._last[1]


def fitted(X, beta):
    """Per-path values ``X @ beta`` of features ``X`` (P, F), rounded the
    same for every subset of the paths.  numpy takes its vector path for a
    one-row or one-column product, which rounds differently from the matrix
    path, so either is evaluated as two."""
    s, k = X.shape[0], beta.shape[1]
    if s == 1:
        X = np.concatenate([X.T, X.T], axis=1).T
    if k == 1:
        beta = np.concatenate([beta, beta], axis=1)
    return (X @ beta)[:s, :k]


class StepHistory:
    """Read-only (n_paths, n_steps, ...) history that stores no per-path
    values: ``h[paths, j, ...]`` evaluates step j on the selected paths
    through ``step(j, paths)``, and ``nbytes`` counts the arrays actually
    stored.  It deliberately has no ``__array__``, so the whole history is
    never rebuilt by one stray ``np.asarray``."""

    def __init__(self, shape, step, stored):
        self.shape = tuple(shape)
        self.ndim = len(self.shape)
        self.nbytes = sum(a.nbytes for a in stored)
        self._step = step

    def __getitem__(self, key):
        if not isinstance(key, tuple) or len(key) < 2:
            raise TypeError("a step history is read one step at a time: h[paths, j, ...]")
        paths, j, *rest = key
        n_steps = self.shape[1]
        j = operator.index(j)
        if not -n_steps <= j < n_steps:
            raise IndexError(f"step {j} is outside 0..{n_steps - 1}")
        return self._step(j % n_steps, paths)[(slice(None), *rest)]


@dataclass
class AdjointPair:
    """Backward pair (y, Y) on the grid, per path; ``driver`` holds the f
    values the sweep used at each step.  ``y`` is stored step-major (see
    :func:`smpkit.forward.step_major`).  ``Y`` and ``driver`` are read one
    step slice at a time, ``Y[:, j]``: from the sweep they are
    :class:`StepHistory` objects over the regression coefficients, while a
    hand-built pair may pass dense arrays."""

    grid: object
    y: np.ndarray                    # (n_paths, n_steps + 1, n)
    Y: object                        # (n_paths, n_steps, n)
    driver: Optional[object] = None  # (n_paths, n_steps, n)
    fingerprint: Optional[tuple] = None

    @property
    def n_paths(self):
        return self.y.shape[0]


def check_same_ensemble(*objects):
    prints = [obj.fingerprint for obj in objects if getattr(obj, "fingerprint", None) is not None]
    for fp in prints[1:]:
        if fp != prints[0]:
            raise EnsembleMismatchError(f"seed lineage differs: {prints[0]} vs {fp}")


class FeatureAffine(NamedTuple):
    """A regression target that is affine in the features of the step it
    sits on, ``X_{j+1} @ beta``: :func:`regression_sweep` takes its moments
    from the cross moments of the two steps' features."""

    beta: np.ndarray  # (F, k)


def regression_sweep(features, terminal, decay, ens, update):
    """One-step regression scheme (Gobet, Lemor and Warin, Ann. Appl. Probab.
    2005) from ``target = terminal`` (P, k) back to step 0.  Step j fits the
    mean and the martingale part of ``target * decay`` on the features X of
    step j (``features`` is a :class:`StepFeatures`), both from the moment
    block of W = [X; X*dw] (see the module docstring), then ``update(j, X,
    beta_mean, beta_mart)`` applies the driver and returns the next target:
    per path (P, k), or a :class:`FeatureAffine` on X."""
    grid = ens.grid
    n_feat = features.n_features
    if n_feat > ens.n_paths / 10:
        raise DegenerateBasisError(
            f"{n_feat} features against {ens.n_paths} paths violates the over-fit guard"
        )
    target, rows_next = terminal, None
    n_paths = ens.n_paths
    for j in range(grid.n_steps - 1, -1, -1):
        # W = [X; X*dw] (2F, P), the features built straight into its top half
        W = np.empty((2 * n_feat, n_paths))
        X = features.basis.features(features.states[:, j], out=W[:n_feat])
        np.multiply(W[:n_feat], ens.increments[:, j], out=W[n_feat:])
        moments = W @ X  # [X'X; (X*dw)'X]
        if isinstance(target, FeatureAffine):
            rhs = (W @ rows_next.T) @ (target.beta * decay)
        else:
            rhs = W @ (target * decay)
        solver = RidgeSolver(moments[:n_feat], features.basis.ridge)
        beta_mean = solver.solve(rhs[:n_feat])
        # the centred martingale fit: centring by the conditional mean leaves
        # the estimand unchanged and strips the dominant variance term
        beta_mart = solver.solve((rhs[n_feat:] - moments[n_feat:] @ beta_mean) / grid.dt)
        target = update(j, X, beta_mean, beta_mart)
        # only a feature-affine target needs this step's rows at the next step
        rows_next = X.T if isinstance(target, FeatureAffine) else None
        del W, X  # the next step's block is built after this one is freed


def _first_driver(scenario, t, x, u, y_hat, Y_j):
    """Driver -a_x* y_hat - b_x* Y + g_x at one step, per path."""
    return (
        -scenario.vjp("a", "x", t, x, u, y_hat)
        - scenario.vjp("b", "x", t, x, u, Y_j)
        + scenario.grad_x_running(t, x, u)
    )


def solve_first_adjoint(scenario, trajectory, ens, basis=None):
    """Regression sweep for the adjoint pair along an optimal-candidate
    trajectory, with terminal data -h_x and driver -a_x*y - b_x*Y + g_x.

    ``y`` is kept per path.  ``Y`` and ``driver`` keep the per-step
    coefficients ``beta_mart``/``beta_mean`` (n_steps, n_features, n) and
    re-evaluate a step on the trajectory's features, so the pair holds on
    to ``trajectory.states``."""
    basis = basis or RegressionBasis()
    check_same_ensemble(trajectory, ens)
    op = scenario.op
    grid = ens.grid
    n, N, P = op.n_modes, grid.n_steps, ens.n_paths
    dt = grid.dt
    times = grid.times()
    states, controls = trajectory.states, trajectory.controls_used
    features = StepFeatures(basis, states)

    y = step_major((P, N + 1, n))
    beta_mean = np.empty((N, features.n_features, n))
    beta_mart = np.empty_like(beta_mean)
    y[:, N] = -scenario.grad_terminal(states[:, N])

    def update(j, X, b_mean, b_mart):
        beta_mean[j], beta_mart[j] = b_mean, b_mart
        y_hat, Y_j = fitted(X, b_mean), fitted(X, b_mart)
        f_j = _first_driver(scenario, times[j], states[:, j], controls[:, j], y_hat, Y_j)
        y[:, j] = y_hat - dt * f_j
        return y[:, j]

    def Y_at(j, paths):
        return fitted(features.at(j, paths), beta_mart[j])

    def driver_at(j, paths):
        X = features.at(j, paths)
        return _first_driver(scenario, times[j], states[paths, j], controls[paths, j],
                             fitted(X, beta_mean[j]), fitted(X, beta_mart[j]))

    decay = np.exp(op.eigenvalues * dt)
    regression_sweep(features, y[:, N], decay, ens, update)
    Y = StepHistory((P, N, n), Y_at, (beta_mart,))
    driver = StepHistory((P, N, n), driver_at, (beta_mean,))
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
