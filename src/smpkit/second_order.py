"""Backward solver for the matrix-valued second-order adjoint equation.

The matrix dynamics

    dP = -(A* + J*) P dt - P (A + J) dt - K* P K dt - (K* Q + Q K) dt
         + F dt + Q dw,        P(T) = P_T

are vectorized (column-major stacking, so cross terms of Q are reproducible)
and swept backward by :func:`smpkit.adjoint.regression_sweep`, as the
vector adjoint is; this module supplies the driver update.  The unbounded
part acts exactly through the tensor flow M -> S(dt) M S*(dt), i.e. entry
(k, l) is scaled by exp((mu_k + mu_l) dt).

Two storage modes:

* coefficient mode (J, K, F deterministic): per-step regression coefficients
  are kept and per-path matrices are re-evaluated on demand, so memory stays
  O(n_steps * n_features * n^2) even for large ensembles.  The driver is
  affine in the features, so the update is done once in coefficient space,
  P_j = X_j beta_P[j], and the update hands the sweep beta_P[j] itself (a
  :class:`smpkit.adjoint.FeatureAffine`).  The sweep takes step j-1's
  moments from the cross moments [X_{j-1}; X_{j-1}*dw]' X_j times
  beta_P[j].  On the first adjoint's :class:`smpkit.adjoint.StepFeatures`
  those cross moments, the Gram blocks and the ridge solvers are already
  recorded, so the sweep builds features and touches per-path data only at
  its terminal step;
* dense mode (path-dependent coefficients): full per-path histories, stored
  step-major (see :func:`smpkit.forward.step_major`).
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
from .forward import at_step, step_major
from .spectral import OperatorSpec

SYMMETRY_WARN = 1e-6


def mat_to_vec(m):
    """Column-major stack of the trailing two axes."""
    n = m.shape[-1]
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (n * n,))


def vec_to_mat(v, n):
    return v.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)


def tensor_semigroup_apply(op, dt, m):
    """Congruence flow S(dt) M S*(dt): entry (k, l) scaled by exp((mu_k+mu_l)dt)."""
    if dt < 0:
        raise DomainError("dt must be nonnegative")
    m = np.asarray(m, dtype=float)
    n = op.n_modes
    if m.shape[-2:] != (n, n):
        raise DimensionError(f"matrix must be {n}x{n}")
    if dt == 0:
        return m.copy()
    return m * np.exp(np.add.outer(op.eigenvalues, op.eigenvalues) * dt)


def max_asymmetry(m):
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2)))) if m.size else 0.0


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
    """Pair (P, Q) of matrix processes, per path.

    ``P_paths(j)``/``Q_paths(j)`` return (n_paths, n, n) slices regardless of
    the storage mode; the terminal slice is stored exactly per path.
    """

    grid: object
    op: OperatorSpec
    features: Optional[StepFeatures] = None       # regressor features per step
    beta_P: Optional[np.ndarray] = None           # (N, F, n^2)
    beta_Q: Optional[np.ndarray] = None           # (N, F, n^2)
    P_terminal: Optional[np.ndarray] = None       # (P, n, n)
    dense_P: Optional[np.ndarray] = None          # (P, N+1, n, n)
    dense_Q: Optional[np.ndarray] = None          # (P, N, n, n)
    fingerprint: Optional[tuple] = None
    symmetry_drift: float = 0.0

    @property
    def n_paths(self):
        if self.dense_P is not None:
            return self.dense_P.shape[0]
        return self.P_terminal.shape[0]

    def P_paths(self, j):
        if self.dense_P is not None:
            return self.dense_P[:, j]
        if j == self.grid.n_steps:
            return self.P_terminal
        return vec_to_mat(self.features.at(j) @ self.beta_P[j], self.op.n_modes)

    def Q_paths(self, j):
        if self.dense_Q is not None:
            return self.dense_Q[:, j]
        if j >= self.grid.n_steps:
            raise DomainError("martingale component is defined on steps 0..n_steps-1")
        return vec_to_mat(self.features.at(j) @ self.beta_Q[j], self.op.n_modes)

    def P_mean(self, j):
        if self.dense_P is None and j < self.grid.n_steps:
            # P is affine in the features, so its mean is mean(X) @ beta_P[j]
            return vec_to_mat(self.features.means[j] @ self.beta_P[j], self.op.n_modes)
        return self.P_paths(j).mean(axis=0)


def brownian_features(ens, basis=None):
    """Features of the Brownian paths of ``ens``, the default regressor of
    :func:`solve_second_adjoint`."""
    return StepFeatures(basis or RegressionBasis(), ens.brownian_paths()[:, :, None], ens)


def solve_second_adjoint(op, J, K, F, P_T, ens, basis=None, features=None):
    """Regression sweep for (P, Q).

    J, K, F may be None, constant (n, n), time-indexed (N, n, n), or
    path-indexed (P, N, n, n); P_T may be (n, n) or per path (P, n, n).
    ``features`` is the :class:`smpkit.adjoint.StepFeatures` to regress on,
    such as the first adjoint's ``pair.features``, whose recorded moments
    the sweep reuses; by default the Brownian paths with ``basis``.
    """
    grid = ens.grid
    n, N, P = op.n_modes, grid.n_steps, ens.n_paths
    dt = grid.dt
    if features is None:
        features = brownian_features(ens, basis)
    elif basis is not None and basis != features.basis:
        raise DomainError("basis differs from the basis of the features")
    check_same_ensemble(features, ens)
    if features.states.shape[:2] != (P, N + 1):
        raise DimensionError("features must cover every path and step")

    J, K, F = (None if c is None else np.asarray(c, dtype=float) for c in (J, K, F))
    P_T = np.asarray(P_T, dtype=float)
    if P_T.ndim == 2:
        P_T = np.broadcast_to(P_T, (P, n, n))
    dense = any(c is not None and c.ndim == 4 for c in (J, K, F))
    sym_data = max_asymmetry(P_T) <= 1e-12 and (F is None or max_asymmetry(F) <= 1e-12)
    drift_sym = 0.0

    # mat_to_vec(P_T) as an owned copy; the stored terminal slice is a
    # column-major view of it, so the terminal target costs no second copy
    P_T_vec = np.copy(np.swapaxes(P_T, -1, -2)).reshape(P, n * n)
    result = SecondOrderAdjoint(
        grid=grid, op=op, features=None if dense else features,
        P_terminal=vec_to_mat(P_T_vec, n), fingerprint=ens.fingerprint,
    )
    if dense:
        result.dense_P = step_major((P, N + 1, n, n))
        result.dense_Q = step_major((P, N, n, n))
        result.dense_P[:, N] = P_T
    else:
        result.beta_P = np.empty((N, features.n_features, n * n))
        result.beta_Q = np.empty_like(result.beta_P)

    def update(j, beta_tilde, beta_q):
        nonlocal drift_sym
        Jj, Kj, Fj = (at_step(c, j, 2) for c in (J, K, F))
        if dense:
            X = features.at(j)
            p_tilde = vec_to_mat(X @ beta_tilde, n)
            q_j = vec_to_mat(X @ beta_q, n)
            result.dense_P[:, j] = p_tilde - dt * _driver(Jj, Kj, Fj, p_tilde, q_j)
            result.dense_Q[:, j] = q_j
            p_next = mat_to_vec(result.dense_P[:, j])
        else:
            # the driver is feature-affine, so the update is done once in
            # coefficient space and the next target is X @ beta_P[j]
            bP = vec_to_mat(beta_tilde, n)
            bQ = vec_to_mat(beta_q, n)
            new_bP = bP - dt * _driver(Jj, Kj, None, bP, bQ)
            if Fj is not None:
                new_bP[0] = new_bP[0] - dt * Fj  # constant feature column is 1
            result.beta_P[j] = mat_to_vec(new_bP)
            result.beta_Q[j] = mat_to_vec(bQ)
            p_next = FeatureAffine(result.beta_P[j])
        if sym_data:
            # in coefficient mode P is affine in the features, so its path
            # mean is mean(X) @ beta_P[j]
            p_mean = p_next.mean(axis=0) if dense else features.means[j] @ result.beta_P[j]
            drift_sym = max(drift_sym, max_asymmetry(vec_to_mat(p_mean, n)))
        return p_next

    decay = mat_to_vec(np.exp(np.add.outer(op.eigenvalues, op.eigenvalues) * dt))
    regression_sweep(features, P_T_vec, decay, update)
    result.symmetry_drift = drift_sym
    if sym_data and drift_sym > SYMMETRY_WARN:
        warnings.warn(f"symmetry drift {drift_sym:.2e} with symmetric data")
    return result


def _stiff_substeps(op, J, K, dt):
    rate = 2.0 * np.max(np.abs(op.eigenvalues)) + 1.0
    if J is not None:
        rate += 2.0 * np.max(np.linalg.norm(J, 2, axis=(-2, -1)))
    if K is not None:
        rate += np.max(np.linalg.norm(K, 2, axis=(-2, -1))) ** 2
    return max(1, int(np.ceil(rate * dt / 0.02)))


def lyapunov_oracle(op, J, K, F, P_T, grid, substeps=None):
    """Deterministic reduction: with nonrandom data the martingale part
    vanishes and P solves P' = -(A+J)'P - P(A+J) - K'PK + F backward from
    P(T) = P_T.  Classical RK4 with stiffness-based substeps; coefficients
    are frozen per grid step, matching the discrete convention of the Monte
    Carlo sweep.  Returns (n_steps+1, n, n)."""
    n, N = op.n_modes, grid.n_steps
    A = np.diag(op.eigenvalues)
    J, K, F = (None if c is None else np.asarray(c, dtype=float) for c in (J, K, F))
    P_T = np.asarray(P_T, dtype=float)
    if P_T.shape != (n, n):
        raise DimensionError(f"P_T must be {n}x{n}")
    sub = substeps or _stiff_substeps(op, J, K, grid.dt)
    h = grid.dt / sub

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

        for _ in range(sub):
            k1 = rhs(p)
            k2 = rhs(p - 0.5 * h * k1)
            k3 = rhs(p - 0.5 * h * k2)
            k4 = rhs(p - h * k3)
            p = p - h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[j] = p
    return out
