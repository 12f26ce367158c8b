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
affine in the next step's features, Z = X_{j+1} beta + R, its moments are
the cross moments C_j = W X_{j+1} times beta, plus W R.

One moment record serves both adjoint orders.  A :class:`StepFeatures`
belongs to one trajectory, ensemble and basis; the first sweep on it
records every step's G, E, C_j, feature means and ridge solver, and the
second-order sweep on the same trajectory reads them instead of building
the features again.  Both orders run this scheme through
:func:`regression_sweep` and supply only their driver update.

The first adjoint is kept in coefficient form and read one step at a time,
the way the paper pairs a solution in the sense of transposition against
test processes: ``AdjointPair.at(j)`` re-evaluates step j on its features,
so identity checks pair against what the sweep fitted.  Y_j = X_j
beta_mart[j] and y_j = X_j beta_y[j] + rest_j, whose moments the sweep
takes as C_j beta_y plus W times the per-path rest; y_j and Y_j come from
one product per step.  When the Jacobian callbacks of a and b each return
one matrix at every step (the same on every path, so a_xx = b_xx = 0) the
driver is affine in the features up to g_x, so beta_y folds it in and
rest_j = -dt g_x(t_j, x_j, u_j); otherwise beta_y is the mean fit and
rest_j = -dt f_j.  No (P, N, n) history is kept.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateBasisError, EnsembleMismatchError
from .forward import check_step, path_constant_steps
from .spectral import OperatorSpec


@dataclass(frozen=True)
class RegressionBasis:
    """Quadratic regression features: 1, x_k, x_k x_l on the leading ``mode_cap``
    modes."""

    mode_cap: int = 4
    ridge: float = 1e-8

    def n_features(self, n_modes):
        m = min(n_modes, self.mode_cap)
        return 1 + m + m * (m + 1) // 2

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
        rows[1 : 1 + m] = x[:, :m].T
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


class StepFeatures:
    """Regression features of a state history ``states`` (P, N+1, d) on the
    ensemble ``ens``, and the moment record of its steps.

    The first :func:`regression_sweep` to walk the steps records, for every
    step j < N, the moment block [X_j; X_j*dw]' X_j (the Gram block and the
    dw-weighted Gram), the cross moments C_j = [X_j; X_j*dw]' X_{j+1}, the
    feature means and the step's :class:`RidgeSolver`.  A later sweep on the
    same object reads them, and builds step j's features only when its
    target at step j has per-path values.  A coefficient-form pair
    re-evaluates a step through ``at(j)``, which gives the features the
    sweep fitted on; the features of the last step read are kept, so
    several reads at one step build them once."""

    def __init__(self, basis, states, ens):
        self.basis = basis
        self.states = states
        self.ens = ens
        self.moments = self.cross = self.means = self.solvers = None
        self.recorded = False
        self._last = (None, None)

    @property
    def n_features(self):
        return self.basis.n_features(self.states.shape[2])

    def at(self, j):
        """Features of ``states[:, j]``."""
        if self._last[0] != j:
            self._last = (None, None)  # released before the next step is built
            self._last = (j, self.basis.features(self.states[:, j]))
        return self._last[1]

    def _build(self, j, W):
        """Build W = [X_j; X_j*dw] into the (2F, P) rows ``W``, the features
        in its top half; they are kept as the features of step j."""
        n_feat = self.n_features
        X = self.basis.features(self.states[:, j], out=W[:n_feat])
        np.multiply(W[:n_feat], self.ens.increments[:, j], out=W[n_feat:])
        self._last = (j, X)

    def _record(self, j, moments):
        """Record step j's moment block [X'X; (X*dw)'X], feature means and
        solver.  The first feature is the constant 1, so the first row of
        X'X holds the feature sums."""
        self.moments[j] = moments
        self.means[j] = moments[0] / self.ens.n_paths
        self.solvers[j] = RidgeSolver(moments[:self.n_features], self.basis.ridge)

    def _start_record(self):
        n_steps, n_feat = self.states.shape[1] - 1, self.n_features
        self.moments = np.empty((n_steps, 2 * n_feat, n_feat))
        self.cross = np.empty_like(self.moments)
        self.means = np.empty((n_steps, n_feat))
        self.solvers = [None] * n_steps


@dataclass
class AdjointPair:
    """First adjoint pair (y, Y) of the equation on ``op`` over the ensemble
    ``ens``, read one step at a time: ``at(j)`` gives (y_j, Y_j) on every
    path, and ``at(j, with_driver=True)`` also the driver f_j of that step,
    from the same read.  ``y_T`` is the read-only terminal value y(T).
    ``features`` is the sweep's :class:`StepFeatures`, which a second-order
    sweep on the same trajectory takes."""

    op: OperatorSpec
    ens: object                        # BrownianEnsemble
    y_T: np.ndarray                    # (n_paths, n)
    read: Callable                     # (j, with_driver) -> (y_j, Y_j[, f_j])
    features: Optional[StepFeatures] = None
    # the stored coefficients beta_y, beta_mart and beta_mean (None when it
    # is beta_y), (n_steps, n_features, n) and read-only; only the benchmark
    # tracer (perfbench/tracing.py) reads them, for their nbytes
    y: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    driver: Optional[np.ndarray] = None

    def at(self, j, with_driver=False):
        """(y_j, Y_j), each (n_paths, n), at a step 0 <= j < n_steps; with
        ``with_driver`` also the driver f_j."""
        return self.read(check_step(j, self.ens.grid.n_steps - 1), with_driver)


def check_same_ensemble(*objects):
    prints = [obj.fingerprint for obj in objects if getattr(obj, "fingerprint", None) is not None]
    for fp in prints[1:]:
        if fp != prints[0]:
            raise EnsembleMismatchError(f"seed lineage differs: {prints[0]} vs {fp}")


class FeatureAffine(NamedTuple):
    """A regression target that is affine in the features of the step it
    sits on, ``X_{j+1} @ beta + rest``, with ``rest`` per path (P, k) or
    absent: :func:`regression_sweep` takes the moments of ``X_{j+1} @
    beta`` from the cross moments of the two steps' features."""

    beta: np.ndarray                    # (F, k)
    rest: Optional[np.ndarray] = None   # (P, k)


def regression_sweep(features, terminal, decay, update):
    """One-step regression scheme (Gobet, Lemor and Warin, Ann. Appl. Probab.
    2005) from ``target = terminal`` (P, k) back to step 0.  Step j fits the
    mean and the martingale part of ``target * decay`` on the features X of
    step j, both from the moment block of W = [X; X*dw] (see the module
    docstring), then ``update(j, beta_mean, beta_mart)`` applies the driver
    and returns the next target as a :class:`FeatureAffine` on X.
    ``features`` is a :class:`StepFeatures`; the first sweep on it records
    its moments, and a later one builds step j's W only for a target with
    per-path values."""
    ens = features.ens
    grid = ens.grid
    n_feat = features.n_features
    if n_feat > ens.n_paths / 10:
        raise DegenerateBasisError(
            f"{n_feat} features against {ens.n_paths} paths violates the over-fit guard"
        )
    recording = not features.recorded
    if recording:
        features._start_record()
    n_paths = ens.n_paths
    beta, rest, X_next = None, terminal, None
    for j in range(grid.n_steps - 1, -1, -1):
        rhs = 0.0
        if recording or rest is not None:
            # rows [rest*decay; X_{j+1}; X_j; X_j*dw]: one product of the
            # bottom block W = [X_j; X_j*dw] with the rows above it gives the
            # per-path rest's moments, the cross moments and the step's own
            # moment block.  Its shape does not depend on whether the sweep
            # records, so two sweeps of one target on one record agree bit
            # for bit (BLAS may round a column differently in another shape)
            r = 0 if rest is None else rest.shape[1]
            c = 0 if X_next is None else n_feat
            rows = np.empty((r + c + 2 * n_feat, n_paths))
            if r:
                np.multiply(rest.T, decay[:, None], out=rows[:r])
            if c:
                rows[r:r + c] = X_next
            W = rows[r + c:]
            features._build(j, W)
            prod = W @ rows[:r + c + n_feat].T
            if recording:
                features._record(j, prod[:, r + c:])
                if c:
                    features.cross[j] = prod[:, r:r + c]
            if r:
                rhs = prod[:, :r]
            X_next = W[:n_feat]
            del rows, W, prod
        else:
            X_next = None
        if beta is not None:
            rhs = rhs + features.cross[j] @ (beta * decay)
        solver = features.solvers[j]
        beta_mean = solver.solve(rhs[:n_feat])
        # the centred martingale fit: centring by the conditional mean leaves
        # the estimand unchanged and strips the dominant variance term
        beta_mart = solver.solve((rhs[n_feat:] - features.moments[j, n_feat:] @ beta_mean)
                                 / grid.dt)
        beta, rest = update(j, beta_mean, beta_mart)
    features.recorded = True
    features._last = (None, None)  # the last block is not kept past the sweep


def _first_driver(scenario, t, x, u, y_hat, Y_j):
    """Driver -a_x* y_hat - b_x* Y + g_x at one step, per path."""
    return (
        -scenario.vjp("a", "x", t, x, u, y_hat)
        - scenario.vjp("b", "x", t, x, u, Y_j)
        + scenario.grad_x_running(t, x, u)
    )


def solve_first_adjoint(scenario, trajectory, ens, consume=None):
    """Regression sweep for the adjoint pair along an optimal-candidate
    trajectory, with terminal data -h_x and driver -a_x*y - b_x*Y + g_x.

    The pair keeps the per-step coefficients beta_y, beta_mart and
    beta_mean (see the module docstring) and re-evaluates a step on the
    trajectory's features, so it holds on to ``trajectory.states``.  With
    one-matrix ``drift_x`` and ``diffusion_x`` the driver is X(-beta_mean
    a_x - beta_mart b_x) + g_x and beta_y = beta_mean + dt (beta_mean a_x +
    beta_mart b_x).

    ``pair.at(j)`` takes y_j and Y_j from one product of X_j with the
    stacked [beta_y[j] | beta_mart[j]], plus y's rest; when beta_y is
    beta_mean that product also gives the driver's y_hat and Y, from which
    the rest is formed, in the sweep's update as in a read.  With
    ``with_driver`` the read also hands back that driver or, when the
    driver is folded, one formed from its Y_j and one more product, X_j
    beta_mean[j].

    ``consume(j, y_j, Y_j)``, if given, gets each step's pair inside the
    sweep (steps N-1 down to 0), bit for bit what ``pair.at(j)`` reads; it
    may overwrite the trajectory's controls at step j, which the sweep has
    read by then (``pair.at`` then reads the new values)."""
    check_same_ensemble(trajectory, ens)
    op = scenario.op
    grid = ens.grid
    n, N = op.n_modes, grid.n_steps
    dt = grid.dt
    times = grid.times()
    states, controls = trajectory.states, trajectory.controls_used
    features = StepFeatures(RegressionBasis(), states, ens)

    y_T = -scenario.grad_terminal(states[:, N])
    y_T.flags.writeable = False  # pair.y_T hands out this array itself
    a_x = path_constant_steps(scenario.drift_x, trajectory, (n, n))
    b_x = None if a_x is None else path_constant_steps(scenario.diffusion_x, trajectory, (n, n))
    folded = b_x is not None
    # [beta_y | beta_mart] per step, so that one product reads y and Y
    stacked = np.empty((N, features.n_features, 2 * n))
    beta_y, beta_mart = stacked[:, :, :n], stacked[:, :, n:]
    beta_mean = np.empty_like(beta_y) if folded else beta_y

    def driver_from(j, fit):
        # f_j on the step's product ``fit`` with [beta_y | beta_mart]: Y_j is
        # its right half, and y_hat its left half, or one more product with
        # beta_mean when the driver is folded into beta_y
        y_hat = features.at(j) @ beta_mean[j] if folded else fit[:, :n]
        return _first_driver(scenario, times[j], states[:, j], controls[:, j], y_hat, fit[:, n:])

    def folded_rest(j):
        # the part of y_j outside the features left by a folded driver; an
        # unfolded one leaves -dt f_j, formed on the step's product
        return -dt * scenario.grad_x_running(times[j], states[:, j], controls[:, j])

    def update(j, b_mean, b_mart):
        beta_mean[j], beta_mart[j] = b_mean, b_mart
        if folded:
            beta_y[j] = b_mean + dt * (b_mean @ a_x[j] + b_mart @ b_x[j])
        # one product serves the unfolded rest and the consumer; a folded
        # sweep with no consumer forms none
        fit = None if folded and consume is None else features.at(j) @ stacked[j]
        rest = folded_rest(j) if folded else -dt * driver_from(j, fit)
        if consume is not None:  # after the rest: it may overwrite controls[:, j]
            consume(j, fit[:, :n] + rest, fit[:, n:])
        return FeatureAffine(beta_y[j], rest)

    decay = np.exp(op.eigenvalues * dt)
    regression_sweep(features, y_T, decay, update)

    def read(j, with_driver):
        fit = features.at(j) @ stacked[j]
        if folded:
            rest = folded_rest(j)
            f_j = driver_from(j, fit) if with_driver else None
        else:
            f_j = driver_from(j, fit)
            rest = -dt * f_j
        y_j, Y_j = fit[:, :n] + rest, fit[:, n:]
        return (y_j, Y_j, f_j) if with_driver else (y_j, Y_j)

    stored = [beta.view() for beta in (beta_y, beta_mart, beta_mean)[:2 + folded]]
    for beta in stored:
        beta.flags.writeable = False
    return AdjointPair(op, ens, y_T, read, features, *stored)
