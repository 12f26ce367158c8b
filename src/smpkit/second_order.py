"""Backward solver for the matrix-valued second-order adjoint equation.

The matrix dynamics

    dP = -(A* + J*) P dt - P (A + J) dt - K* P K dt - (K* Q + Q K) dt
         + F dt + Q dw,        P(T) = P_T

are vectorized (column-major stacking, so cross terms of Q are reproducible)
and swept backward by :func:`smpkit.adjoint.regression_sweep`, as the
vector adjoint is; this module supplies the driver update.  The unbounded
part acts exactly through the tensor flow M -> S(dt) M S*(dt), i.e. entry
(k, l) is scaled by exp((mu_k + mu_l) dt).

P and Q are kept as per-step regression coefficients on the features, and
per-path matrices are re-evaluated on demand, so memory stays O(n_steps *
n_features * n^2) even for large ensembles.  When J, K and F are the same
on every path the driver is affine in the features, so the update is done
once in coefficient space, P_j = X_j beta_P[j], and the update hands the
sweep beta_P[j] itself (a :class:`smpkit.adjoint.FeatureAffine`).  The
sweep takes step j-1's moments from the cross moments [X_{j-1};
X_{j-1}*dw]' X_j times beta_P[j].  On the first adjoint's
:class:`smpkit.adjoint.StepFeatures` those cross moments, the Gram blocks
and the ridge solvers are already recorded, so the sweep builds features
and touches per-path data only at its terminal step.  With a path-indexed
J, K or F, beta_P[j] is the mean fit and P_j adds the per-path rest -dt
times the driver on the fitted P and Q, which the sweep takes as the
target's per-path part.  A step is read once, (P_j, Q_j) =
``SecondOrderAdjoint.at(j)``: the two products X_j beta_P[j] and X_j
beta_Q[j] give both halves and the rest.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import (
    FeatureAffine,
    RegressionBasis,
    StepFeatures,
    check_same_ensemble,
    regression_sweep,
)
from .errors import DimensionError, DomainError
from .forward import at_step, check_step
from .spectral import OperatorSpec

SYMMETRY_WARN = 1e-6


def mat_to_vec(m):
    """Column-major stack of the trailing two axes."""
    n = m.shape[-1]
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (n * n,))


def vec_to_mat(v, n):
    return v.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)


def max_asymmetry(m):
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2)))) if m.size else 0.0


def _shaped(arr, shapes, what):
    """``arr`` as a float array whose shape is one of ``shapes``."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape not in shapes:
        raise DimensionError(f"{what} has shape {arr.shape}, expected one of {list(shapes)}")
    return arr


def coefficients(J, K, F, P_T, n, N, n_paths=None):
    """J, K, F and P_T of the matrix equation as float arrays.  J, K and F may
    be None, (n, n), time-indexed (N, n, n) or, given ``n_paths``, per path
    (n_paths, N, n, n); P_T (n, n) or, given ``n_paths``, per path.  Another
    shape raises DimensionError and a NaN or infinite entry DomainError."""
    steps, ends = ((n, n), (N, n, n)), ((n, n),)
    if n_paths is not None:
        steps, ends = steps + ((n_paths, N, n, n),), ends + ((n_paths, n, n),)
    out = [None if c is None else _shaped(c, steps, name)
           for c, name in ((J, "J"), (K, "K"), (F, "F"))] + [_shaped(P_T, ends, "P_T")]
    for c, name in zip(out, ("J", "K", "F", "P_T")):
        # two reductions and no temporary: a NaN makes both NaN
        if c is not None and not (np.isfinite(c.max()) and np.isfinite(c.min())):
            raise DomainError(f"{name} has a NaN or infinite entry")
    return out


def _driver(J, K, F, P, Q):
    """-J*P - PJ - K*PK - (K*Q + QK) + F, batched over leading axes of P, Q."""
    out = np.zeros_like(P) if F is None else F + np.zeros_like(P)
    if J is not None:
        Jt = np.swapaxes(J, -1, -2)
        out = out - np.matmul(Jt, P) - np.matmul(P, J)
    if K is not None:
        Kt = np.swapaxes(K, -1, -2)
        out = out - np.matmul(Kt, np.matmul(P, K))
        out = out - np.matmul(Kt, Q) - np.matmul(Q, K)
    return out


@dataclass
class SecondOrderAdjoint:
    """Pair (P, Q) of matrix processes solving the equation with data ``J``,
    ``K``, ``F`` and ``P_T`` on ``ens``, as :func:`coefficients` checked
    them (P_T (n, n) or per path), kept as per-step regression coefficients
    on ``features``: P_j = X_j beta_P[j] + rest_j and Q_j = X_j beta_Q[j],
    with a per-path rest only when J, K or F is path-indexed
    (``per_path``).  A datum without a path axis is the solve's own read-only
    copy; a per-path one stays the caller's, so a write into it is a new equation.

    ``at(j)`` reads (P_j, Q_j), each (n_paths, n, n), from the two products
    X_j beta_P[j] and X_j beta_Q[j], and forms the rest from those same
    products.  ``P_paths(j)``/``Q_paths(j)`` are the halves of that read,
    and ``P_paths(n_steps)`` is the terminal slice, stored exactly per path.
    """

    op: OperatorSpec
    ens: object                # BrownianEnsemble
    J: Optional[np.ndarray]
    K: Optional[np.ndarray]
    F: Optional[np.ndarray]
    P_T: np.ndarray
    features: StepFeatures     # regressor features per step
    beta_P: np.ndarray         # (N, F, n^2)
    beta_Q: np.ndarray         # (N, F, n^2)
    P_terminal: np.ndarray     # (P, n, n)
    symmetry_drift: float = 0.0
    # no per-path history; kept as None for perfbench/tracing.py::_observe
    dense_P = dense_Q = None

    @property
    def per_path(self):
        return any(c is not None and c.ndim == 4 for c in (self.J, self.K, self.F))

    def _fitted(self, j):
        """X_j beta_P[j] and X_j beta_Q[j] per path, (n_paths, n, n) each, as
        views of the products beta[j].T X_j.T on the contiguous feature rows,
        so with paths innermost in memory."""
        rows, n = self.features.at(j).T, self.op.n_modes
        return tuple((beta[j].T @ rows).reshape(n, n, -1).T for beta in (self.beta_P, self.beta_Q))

    def _rest(self, j, fit_P, Q_j):
        """P_j's per-path part: -dt times the driver on the fitted X_j
        beta_P[j] and Q_j."""
        steps = (at_step(c, j, 2) for c in (self.J, self.K, self.F))
        return -self.ens.grid.dt * _driver(*steps, fit_P, Q_j)

    def at(self, j):
        """(P_j, Q_j), each (n_paths, n, n), at a step 0 <= j < n_steps."""
        j = check_step(j, self.ens.grid.n_steps - 1)
        P_j, Q_j = self._fitted(j)
        return (P_j + self._rest(j, P_j, Q_j) if self.per_path else P_j), Q_j

    def P_paths(self, j):
        return self.P_terminal if j == self.ens.grid.n_steps else self.at(j)[0]

    def Q_paths(self, j):
        return self.at(j)[1]

    def P_mean(self, j):
        if not self.per_path and j < self.ens.grid.n_steps:
            # P is affine in the features, so its mean is mean(X) @ beta_P[j]
            return vec_to_mat(self.features.means[j] @ self.beta_P[j], self.op.n_modes)
        return self.P_paths(j).mean(axis=0)


def brownian_features(ens, basis=None):
    """Features of the Brownian paths of ``ens``, the default regressor of
    :func:`solve_second_adjoint`."""
    return StepFeatures(basis or RegressionBasis(), ens.brownian_paths()[:, :, None], ens)


def solve_second_adjoint(op, J, K, F, P_T, ens, features=None):
    """Regression sweep for (P, Q).

    J, K, F may be None, constant (n, n), time-indexed (N, n, n), or
    path-indexed (P, N, n, n); P_T may be (n, n) or per path (P, n, n).
    Other shapes and non-finite entries are rejected.  The result keeps the
    checked data, the equation its identities are verified against.
    ``features`` is the :class:`smpkit.adjoint.StepFeatures` to regress on,
    such as the first adjoint's ``pair.features``, whose recorded moments
    the sweep reuses; by default :func:`brownian_features` of ``ens``.
    """
    grid = ens.grid
    n, N, P = op.n_modes, grid.n_steps, ens.n_paths
    dt = grid.dt
    if features is None:
        features = brownian_features(ens)
    check_same_ensemble(features.ens, ens)
    if features.states.shape[:2] != (P, N + 1):
        raise DimensionError("features must cover every path and step")

    # a read-only view of an owned copy of each datum without a path axis (at
    # most N n^2 floats), so a later write by the caller leaves the equation be
    J, K, F, P_T = (c if c is None or c.ndim == path_ndim else np.broadcast_to(c.copy(), c.shape)
                    for c, path_ndim in zip(coefficients(J, K, F, P_T, n, N, P), (4, 4, 4, 3)))
    P_T_paths = np.broadcast_to(P_T, (P, n, n))
    # F is checked step by step in the update, never copied whole
    sym_data = max_asymmetry(P_T_paths) <= 1e-12
    drift_sym = 0.0

    # mat_to_vec(P_T) as an owned copy; the stored terminal slice is a
    # column-major view of it, so the terminal target costs no second copy
    P_T_vec = np.copy(np.swapaxes(P_T_paths, -1, -2)).reshape(P, n * n)
    P_T_vec.flags.writeable = False  # P_paths(N) hands out views of it
    beta_P = np.empty((N, features.n_features, n * n))
    beta_Q = np.empty_like(beta_P)
    result = SecondOrderAdjoint(op, ens, J, K, F, P_T, features, beta_P, beta_Q,
                                vec_to_mat(P_T_vec, n))

    def update(j, beta_tilde, beta_q):
        nonlocal drift_sym, sym_data
        Jj, Kj, Fj = (at_step(c, j, 2) for c in (J, K, F))
        sym_data = sym_data and (Fj is None or max_asymmetry(Fj) <= 1e-12)
        if result.per_path:
            # beta_P[j] is the mean fit and P_j adds the per-path rest
            beta_P[j], beta_Q[j] = beta_tilde, beta_q
            p_next = FeatureAffine(beta_P[j], mat_to_vec(result._rest(j, *result._fitted(j))))
        else:
            # the driver is feature-affine, so the update is done once in
            # coefficient space and the next target is X @ beta_P[j]
            bP = vec_to_mat(beta_tilde, n)
            bQ = vec_to_mat(beta_q, n)
            new_bP = bP - dt * _driver(Jj, Kj, None, bP, bQ)
            if Fj is not None:
                new_bP[0] = new_bP[0] - dt * Fj  # constant feature column is 1
            beta_P[j] = mat_to_vec(new_bP)
            beta_Q[j] = mat_to_vec(bQ)
            p_next = FeatureAffine(beta_P[j])
        if sym_data:
            # X @ beta_P[j] is affine in the features, so its path mean is
            # mean(X) @ beta_P[j]
            p_mean = features.means[j] @ beta_P[j]
            if p_next.rest is not None:
                p_mean = p_mean + p_next.rest.mean(axis=0)
            drift_sym = max(drift_sym, max_asymmetry(vec_to_mat(p_mean, n)))
        return p_next

    decay = mat_to_vec(np.exp(np.add.outer(op.eigenvalues, op.eigenvalues) * dt))
    regression_sweep(features, P_T_vec, decay, update)
    result.symmetry_drift = drift_sym if sym_data else 0.0
    if sym_data and drift_sym > SYMMETRY_WARN:
        warnings.warn(f"symmetry drift {drift_sym:.2e} with symmetric data")
    return result


def rk4_backward(rhs, p, dt, rate):
    """Classical RK4 backward in time over one step dt along dp/dt = rhs(p),
    from p, in the fewest equal substeps h with rate * h <= 0.02, where
    ``rate`` bounds the stiffness of rhs."""
    sub = max(1, int(np.ceil(rate * dt / 0.02)))
    h = dt / sub
    for _ in range(sub):
        k1 = rhs(p)
        k2 = rhs(p - 0.5 * h * k1)
        k3 = rhs(p - 0.5 * h * k2)
        k4 = rhs(p - h * k3)
        p = p - h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def lyapunov_oracle(op, J, K, F, P_T, grid):
    """Deterministic reduction: with nonrandom data the martingale part
    vanishes and P solves P' = -(A+J)'P - P(A+J) - K'PK + F backward from
    P(T) = P_T.  Classical RK4 with stiffness-based substeps; coefficients
    are frozen per grid step, matching the discrete convention of the Monte
    Carlo sweep.  J, K, F may be None, (n, n) or (N, n, n) and P_T is (n, n);
    other shapes and non-finite entries are rejected.  Returns
    (n_steps+1, n, n)."""
    n, N = op.n_modes, grid.n_steps
    A = np.diag(op.eigenvalues)
    J, K, F, P_T = coefficients(J, K, F, P_T, n, N)
    rate = 2.0 * np.max(np.abs(op.eigenvalues)) + 1.0
    if J is not None:
        rate += 2.0 * np.max(np.linalg.norm(J, 2, axis=(-2, -1)))
    if K is not None:
        rate += np.max(np.linalg.norm(K, 2, axis=(-2, -1))) ** 2

    out = np.empty((N + 1, n, n))
    out[N] = P_T
    p = P_T.copy()
    for j in range(N - 1, -1, -1):
        AJ = A if J is None else A + at_step(J, j, 2)
        Kj = at_step(K, j, 2)
        Fj = at_step(F, j, 2)

        def rhs(m):
            d = -(AJ.T @ m) - m @ AJ
            if Kj is not None:
                d = d - Kj.T @ m @ Kj
            if Fj is not None:
                d = d + Fj
            return d

        out[j] = p = rk4_backward(rhs, p, grid.dt, rate)
    return out
