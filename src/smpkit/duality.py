"""Monte Carlo verification of the defining duality identities.

A backward pair is accepted as a solution exactly when its pairings against
freely chosen forward test data balance.  These verifiers evaluate both sides
of the first-order identity

    E<z(T), y_T> - E int <z, f> dt
        = E<eta, y(t)> + E int <v1, y> dt + E int <v2, Y> dt

and of the second-order identity

    E<P_T x1(T), x2(T)> - E int <F x1, x2> dt
        = E<P(t) xi1, xi2> + E int [ <P u1, x2> + <P x1, u2> + <P K x1, v2>
          + <P v1, K x2 + v2> + <Q v1, x2> + <Q x1, v2> ] dt

with left-endpoint quadrature.  All test tuples of one call share a single
stacked pass: their test states sit on one tuple axis in an (n, K, P)
layout, paths innermost so the per-path contractions run over contiguous
memory, and the ensemble is streamed once from the smallest t_index.  Each
tuple's state and forcings stay zero until its own t_index.  Per-path P_j
and Q_j are built once per step for all tuples, and no full history is
retained.  Residual standard errors come from the per-path residual (both
sides share paths, so the difference is the low-variance statistic).  Pass
rule: |residual| <= k_sigma * stderr + bias_budget, with bias_budget =
c_bias * dt calibrated per preset.

Random test tuples are drawn as descriptions (``TupleSpec``): the adapted
forcing is separable, a time profile times sin(c w + phase), so the stacked
pass evaluates it one step at a time from the shared Brownian paths and no
tuple's (P, N, n) forcing is ever built.  ``materialize`` turns a
description into the arrays the single-tuple API takes.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import check_same_ensemble
from .errors import DomainError
# iter_linear_test is unused here, but perfbench/tracing.py wraps its lookup
# in this module, so the name stays importable from it
from .forward import (  # noqa: F401
    OVERFLOW_GUARD,
    _check_finite,
    _initial_states,
    at_step,
    iter_linear_test,
    iter_linearized,
)
from .second_order import brownian_features, solve_second_adjoint


@dataclass
class IdentityReport:
    identity: str
    t_index: int
    lhs: float
    rhs: float
    stderr: float
    n_paths: int
    dt: float
    bias_budget: float = 0.0
    k_sigma: float = 3.0

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def tolerance(self):
        return self.k_sigma * self.stderr + self.bias_budget

    @property
    def passed(self):
        return abs(self.residual) <= self.tolerance

    def row(self):
        return {
            "identity": self.identity,
            "t_index": self.t_index,
            "n_paths": self.n_paths,
            "dt": self.dt,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "stderr": self.stderr,
            "tolerance": self.tolerance,
            "pass": int(self.passed),
        }


# ----------------------------------------------------------------------
# test-tuple descriptions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingSpec:
    """Separable test forcing profile(t_j) * m(w(t_j)): m = 1 for a
    deterministic forcing, m = sin(freq * w + phase) for an adapted one."""

    profile: np.ndarray            # (N, n)
    freq: Optional[float] = None
    phase: float = 0.0

    def materialize(self, w):
        """(N, n) array, or (n_paths, N, n) for an adapted forcing."""
        if self.freq is None:
            return self.profile.copy()
        modulation = np.sin(self.freq * w[:, :self.profile.shape[0]] + self.phase)
        return self.profile[None, :, :] * modulation[:, :, None]


@dataclass(frozen=True)
class StartSpec:
    """Initial datum c0 + c1 tanh(w(t_index)), measurable at t_index."""

    c0: np.ndarray
    c1: np.ndarray

    def at(self, w_t):
        return self.c0 + self.c1 * np.tanh(w_t)[:, None]


@dataclass(frozen=True)
class TupleSpec:
    """One test tuple by description: initial data and forcings in the order
    of the tuple it materializes to, (t_index, *starts, *forcings)."""

    t_index: int
    starts: tuple
    forcings: tuple

    def materialize(self, w):
        """The arrays of the tuple, given the Brownian paths w of the ensemble."""
        return (self.t_index,
                *(s.at(w[:, self.t_index]) for s in self.starts),
                *(f.materialize(w) for f in self.forcings))


def _smooth_profile(op, ens, rng, scale):
    N = ens.grid.n_steps
    n = op.n_modes
    return scale * rng.standard_normal((1, n)) * np.cos(
        rng.uniform(0, 4) * np.linspace(0.0, 1.0, N) + rng.uniform(0, 2 * np.pi)
    )[:, None]


def _forcing_specs(op, ens, rng, scale, count):
    """`count` forcings with exactly one path-adapted member (the rest are
    deterministic profiles): exercises every pairing while keeping one
    path-dependent forcing per tuple."""
    adapted_slot = int(rng.integers(0, count))
    out = []
    for k in range(count):
        profile = _smooth_profile(op, ens, rng, scale)
        if k == adapted_slot:
            out.append(ForcingSpec(profile, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)))
        else:
            out.append(ForcingSpec(profile))
    return tuple(out)


def _start_spec(op, rng, scale):
    c0 = scale * rng.standard_normal(op.n_modes)
    c1 = scale * rng.standard_normal(op.n_modes)
    return StartSpec(c0, c1)


def describe_first_test(op, ens, rng, scale=1.0):
    """Description of a random tuple (t_index, eta, v1, v2) with eta
    measurable at t_index."""
    t_index = int(rng.integers(0, ens.grid.n_steps // 2 + 1))
    eta = _start_spec(op, rng, scale)
    return TupleSpec(t_index, (eta,), _forcing_specs(op, ens, rng, scale, 2))


def describe_second_test(op, ens, rng, scale=1.0):
    """Description of a random tuple (t_index, xi1, xi2, u1, u2, v1, v2)."""
    t_index = int(rng.integers(0, ens.grid.n_steps // 2 + 1))
    forcings = _forcing_specs(op, ens, rng, scale, 4)
    starts = (_start_spec(op, rng, scale), _start_spec(op, rng, scale))
    return TupleSpec(t_index, starts, forcings)


def random_first_test(op, ens, rng, scale=1.0):
    """Random tuple (t_index, eta, v1, v2) with eta measurable at t_index."""
    return describe_first_test(op, ens, rng, scale).materialize(ens.brownian_paths())


def random_second_test(op, ens, rng, scale=1.0):
    """Random tuple (t_index, xi1, xi2, u1, u2, v1, v2)."""
    return describe_second_test(op, ens, rng, scale).materialize(ens.brownian_paths())


def deterministic_first_test(op, ens, rng, scale=1.0):
    """Deterministic-data tuple: nonrandom eta and forcing profiles.  The
    identity residual is then a pure systematic of the solver and grid, which
    makes it the right probe for refinement studies (adapted tuples sit at
    the Monte Carlo noise floor, where a single residual draw has no
    dt-trend)."""
    N = ens.grid.n_steps
    n = op.n_modes
    t_index = int(rng.integers(0, N // 2 + 1))
    eta = scale * rng.standard_normal(n)
    v1 = np.ascontiguousarray(
        np.broadcast_to(_smooth_profile(op, ens, rng, scale), (N, n)))
    v2 = np.ascontiguousarray(
        np.broadcast_to(_smooth_profile(op, ens, rng, scale), (N, n)))
    return t_index, eta, v1, v2


# ----------------------------------------------------------------------
# the stacked pass
# ----------------------------------------------------------------------

def _dot(a, b):
    """Per (tuple, path) inner product of two (n, K, P) stacks (either may
    have a broadcast path axis of length 1)."""
    return np.einsum("ikp,ikp->kp", a, b)


def _modes_first(vec):
    """A per-path (P, n) or shared (n,) vector as a contiguous (n, P) or
    (n, 1) array.  The transpose of a step slice is made once per step, not
    once per use."""
    if vec.ndim == 1:
        return vec[:, None]
    return np.ascontiguousarray(vec.T)


def _dot_vec(x, vec):
    """Pair an (n, K, P) stack with an (n, P) or (n, 1) vector."""
    return np.einsum("ikp,ip->kp", x, vec)


def _stack_matrix(M):
    """Step slice of a matrix, constant (n, n) or per path (P, n, n), in the
    layout ``_apply`` and ``_form`` take: a constant stays (n, n), a per-path
    one becomes (n, n, P) with paths innermost."""
    if M.ndim == 2:
        return M
    return np.ascontiguousarray(M.transpose(1, 2, 0))


def _coeff_step(coeff, j):
    """Step-j layout of a coefficient spec; None when it is absent or zero
    at this step (a zero coefficient contributes nothing)."""
    M = at_step(coeff, j, 2)
    if M is None or not M.any():
        return None
    return _stack_matrix(M)


def _apply(M, x):
    """M x for every tuple and path of an (n, K, P) stack."""
    if M.ndim == 2:
        return (M @ x.reshape(x.shape[0], -1)).reshape((M.shape[0],) + x.shape[1:])
    return np.einsum("ilp,lkp->ikp", M, x)


def _form(a, M, b):
    """Per (tuple, path) bilinear form <a, M b>.  For a per-path M one
    three-operand contraction, without the intermediate M b.  When a or b
    is shared by all paths (an (n, K, 1) forcing slot), M is contracted with
    it first, one (K, n) x (n, P) product per row of M: a broadcast operand
    would send the contraction down einsum's slower stride-0 path."""
    if M.ndim == 2:
        return _dot(a, _apply(M, b))
    if b.shape[2] == 1:
        b_t = b[:, :, 0].T
        return sum(a[i] * (b_t @ M[i]) for i in range(M.shape[0]))
    if a.shape[2] == 1:
        a_t = a[:, :, 0].T
        return sum((a_t @ M[:, l]) * b[l] for l in range(M.shape[1]))
    return np.einsum("ikp,ilp,lkp->kp", a, M, b)


def _affine(M, x, v):
    """M x + v for an (n, K, P) stack x; a missing M or v is zero, and the
    result is None when both are missing."""
    if M is None:
        return v
    out = _apply(M, x)
    if v is not None:
        out += v
    return out


class _ForcingStack:
    """One forcing slot of the stacked tuples.  ``at(j, w_j)`` gives the
    step-j values as (n, K, 1), or (n, K, P) once an entry depends on the
    path; an entry is zero before its tuple's t_index.  Entries are
    ``ForcingSpec`` descriptions, (N, n) or (P, N, n) arrays, or None."""

    def __init__(self, entries, t_indices, N, n, n_paths):
        self.present = any(e is not None for e in entries)
        self.n_paths = n_paths
        self.profiles = np.zeros((N, n, len(entries)))  # step-major: one block per step
        adapted = []
        self.pathwise = []
        for k, (entry, t) in enumerate(zip(entries, t_indices)):
            if entry is None:
                continue
            if isinstance(entry, ForcingSpec):
                self.profiles[t:, :, k] = entry.profile[t:]
                if entry.freq is not None:
                    adapted.append((k, entry.freq, entry.phase))
                continue
            arr = np.asarray(entry, dtype=float)
            if arr.ndim == 2:
                self.profiles[t:, :, k] = arr[t:]
            else:
                self.pathwise.append((k, t, arr))
        self.rows = [k for k, _, _ in adapted]
        self.freq = np.array([f for _, f, _ in adapted])[:, None]
        self.phase = np.array([p for _, _, p in adapted])[:, None]
        self.needs_paths = bool(adapted)

    def at(self, j, w_j):
        if not self.present:
            return None
        profile = self.profiles[j]
        if not self.rows and not self.pathwise:
            return profile[:, :, None]
        modulation = np.ones((profile.shape[1], self.n_paths))
        if self.rows:
            modulation[self.rows] = np.sin(self.freq * w_j + self.phase)
        out = np.einsum("ik,kp->ikp", profile, modulation)
        for k, t, arr in self.pathwise:
            if j >= t:
                out[:, k] = arr[:, j].T
        return out


class _TupleStack:
    """K test tuples on one tuple axis: their activation steps, initial data
    and forcing slots, and the exponential-Euler step of their linear test
    states in (n, K, P) layout."""

    def __init__(self, tests, n_starts, n_forcings, op, ens):
        grid = ens.grid
        self.N, self.dt, self.n, self.P = grid.n_steps, grid.dt, op.n_modes, ens.n_paths
        self.K = len(tests)
        self.t_index, self.starts, forcings = [], [], []
        for test in tests:
            if isinstance(test, TupleSpec):
                t_index, starts, slots = test.t_index, test.starts, test.forcings
            else:
                t_index, starts, slots = test[0], test[1:1 + n_starts], test[1 + n_starts:]
            if not 0 <= t_index <= self.N:
                raise DomainError(f"t_index {t_index} outside the grid 0..{self.N}")
            self.t_index.append(int(t_index))
            self.starts.append(starts)
            forcings.append(slots)
        self.forcings = [
            _ForcingStack([f[i] for f in forcings], self.t_index, self.N, self.n, self.P)
            for i in range(n_forcings)
        ]
        needs_paths = any(f.needs_paths for f in self.forcings) or any(
            isinstance(s, StartSpec) for starts in self.starts for s in starts)
        self.w = ens.brownian_paths() if needs_paths else None
        self.first = min(self.t_index, default=self.N + 1)
        self.decay = np.exp(op.eigenvalues * self.dt)[:, None, None]
        self.increments = ens.increments

    def zeros(self):
        return np.zeros((self.n, self.K, self.P))

    def activate(self, j, states):
        """Write the initial data of the tuples starting at step j into
        ``states`` (one stack per initial datum); returns their indices."""
        ks = [k for k, t in enumerate(self.t_index) if t == j]
        for k in ks:
            for x, start in zip(states, self.starts[k]):
                if isinstance(start, StartSpec):
                    x[:, k] = start.at(self.w[:, j]).T
                else:
                    x[:, k] = _initial_states(start, self.P, self.n).T
        return ks

    def forcings_at(self, j):
        w_j = None if self.w is None else self.w[:, j]
        return [f.at(j, w_j) for f in self.forcings]

    def increments_at(self, j):
        """The step-j Brownian increments, (P,)."""
        return self.increments[:, j]

    def step(self, x, j, dw, drift, noise):
        """x_{j+1} = S(dt) (x_j + drift dt + noise dw_j); None is zero."""
        y = x.copy() if drift is None else x + drift * self.dt
        if noise is not None:
            y += noise * dw
        y *= self.decay
        # two reductions instead of the full scan; NaN fails the comparison
        if not max(y.max(), -y.min()) <= OVERFLOW_GUARD:
            _check_finite(y.reshape(-1, self.P).T, j)
        return y

    def reports(self, identity, lhs, rhs, bias_budget, k_sigma):
        resid = lhs - rhs
        if self.P > 1:
            stderr = resid.std(axis=1, ddof=1) / np.sqrt(self.P)
        else:
            stderr = np.zeros(self.K)
        return [
            IdentityReport(identity, t, float(lo), float(hi), float(se), self.P, self.dt,
                           bias_budget, k_sigma)
            for t, lo, hi, se in zip(self.t_index, lhs.mean(axis=1), rhs.mean(axis=1), stderr)
        ]


def verify_first_identities(pair, op, tests, ens, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the first-order identity for every test tuple in
    one stacked pass; one report per tuple, in order.

    A tuple is a ``TupleSpec`` or (t_index, eta, v1, v2) with eta (n,) or
    (n_paths, n) and v1/v2 None, (N, n) or (n_paths, N, n)."""
    check_same_ensemble(pair, ens)
    stack = _TupleStack(tests, 1, 2, op, ens)
    N, dt = stack.N, stack.dt
    y_T = _modes_first(pair.y[:, N])

    lhs = np.zeros((stack.K, stack.P))
    rhs = np.zeros((stack.K, stack.P))
    z = stack.zeros()
    for j in range(stack.first, N + 1):
        ks = stack.activate(j, (z,))
        y_j = _modes_first(pair.y[:, j])
        if ks:
            rhs[ks] += _dot_vec(z[:, ks], y_j)
        if j == N:
            lhs += _dot_vec(z, y_T)
            break
        v1, v2 = stack.forcings_at(j)
        # the pair's own driver: a step history, read per step, never whole
        f_j = at_step(pair.driver, j, 1)
        # pair v1 against the pre-update conditional mean y_j + dt f_j: same
        # O(dt) quadrature of the integral, but the one the stepping scheme
        # telescopes exactly
        if f_j is not None:
            f_j = _modes_first(f_j)
            lhs -= dt * _dot_vec(z, f_j)
            y_j = y_j + dt * f_j  # y_j may be a view of pair.y
        if v1 is not None:
            rhs += dt * _dot_vec(v1, y_j)
        if v2 is not None:
            rhs += dt * _dot_vec(v2, _modes_first(pair.Y[:, j]))
        z = stack.step(z, j, stack.increments_at(j), v1, v2)
    return stack.reports("first", lhs, rhs, bias_budget, k_sigma)


def verify_first_identity(pair, op, test, ens, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the first-order identity for one test tuple
    (t_index, eta, v1, v2); see :func:`verify_first_identities`."""
    return verify_first_identities(pair, op, [test], ens, bias_budget, k_sigma)[0]


def verify_second_identities(sa, op, J, K, F, P_T, tests, ens, bias_budget=0.0,
                             k_sigma=3.0):
    """Evaluate both sides of the second-order identity for every test tuple
    in one stacked pass; one report per tuple, in order.

    A tuple is a ``TupleSpec`` or (t_index, xi1, xi2, u1, u2, v1, v2) with
    the shapes :func:`verify_first_identities` takes.  J, K, F may be None,
    (n, n), (N, n, n) or per path (n_paths, N, n, n); P_T (n, n) or per path.
    The pairings are grouped into five per-path bilinear forms per step:
    <x2, P u1> + <u2, P x1> + <x2, Q v1> + <K x2 + v2, P v1>
    + <v2, (P K + Q) x1>."""
    check_same_ensemble(sa, ens)
    stack = _TupleStack(tests, 2, 4, op, ens)
    N, dt = stack.N, stack.dt
    J, K, F = (None if c is None else np.asarray(c, dtype=float) for c in (J, K, F))
    P_T = _stack_matrix(np.asarray(P_T, dtype=float))
    forced = any(f.present for f in stack.forcings)
    noisy = stack.forcings[2].present or stack.forcings[3].present

    lhs = np.zeros((stack.K, stack.P))
    rhs = np.zeros((stack.K, stack.P))
    x1, x2 = stack.zeros(), stack.zeros()
    for j in range(stack.first, N + 1):
        ks = stack.activate(j, (x1, x2))
        P_j = None
        if ks or (forced and j < N):
            P_j = _stack_matrix(sa.P_paths(j))
        if ks:
            rhs[ks] += _form(x2[:, ks], P_j, x1[:, ks])
        if j == N:
            lhs += _form(x2, P_T, x1)
            break
        u1, u2, v1, v2 = stack.forcings_at(j)
        Jj, Kj, Fj = (_coeff_step(c, j) for c in (J, K, F))
        noise1, noise2 = _affine(Kj, x1, v1), _affine(Kj, x2, v2)
        if Fj is not None:
            lhs -= dt * _form(x2, Fj, x1)

        Q_j = _stack_matrix(sa.Q_paths(j)) if noisy else None
        acc = np.zeros((stack.K, stack.P))
        if u1 is not None:
            acc += _form(x2, P_j, u1)
        if u2 is not None:
            acc += _form(u2, P_j, x1)
        if v1 is not None:
            acc += _form(x2, Q_j, v1)
            if noise2 is not None:
                acc += _form(noise2, P_j, v1)
        if v2 is not None:
            PK_Q = Q_j
            if Kj is not None:
                PK_Q = Q_j + np.einsum("ilp,lm->imp" if Kj.ndim == 2 else "ilp,lmp->imp", P_j, Kj)
            acc += _form(v2, PK_Q, x1)
        rhs += dt * acc

        dw = stack.increments_at(j)
        x1 = stack.step(x1, j, dw, _affine(Jj, x1, u1), noise1)
        x2 = stack.step(x2, j, dw, _affine(Jj, x2, u2), noise2)
    return stack.reports("second", lhs, rhs, bias_budget, k_sigma)


def verify_second_identity(sa, op, J, K, F, P_T, test, ens, bias_budget=0.0,
                           k_sigma=3.0):
    """Evaluate both sides of the second-order identity for one test tuple
    (t_index, xi1, xi2, u1, u2, v1, v2); see :func:`verify_second_identities`."""
    return verify_second_identities(sa, op, J, K, F, P_T, [test], ens,
                                    bias_budget, k_sigma)[0]


@dataclass
class ProbeReport:
    delta: float
    discrepancies: np.ndarray  # one per probe forcing
    ratio: float               # max discrepancy / delta (inf-safe for delta=0)


def lipschitz_probe(op, J, K_base, K_perturbed, F, P_T, probes, ens, basis=None):
    """Stability of the martingale-component functional under a coefficient
    change K -> K_perturbed of size delta = ||K - K_perturbed||.

    Both systems are solved on the identical ensemble (common random
    numbers).  Each probe forcing v drives the homogeneous test dynamics
    (xi = 0, u = 0) under the matching coefficient, and the discrepancy is
    the L2(dt x paths) norm of Q(s) x^v(s) between the two solves.
    """
    K_base = None if K_base is None else np.asarray(K_base, dtype=float)
    K_perturbed = np.asarray(K_perturbed, dtype=float)
    n = op.n_modes
    base_mat = np.zeros((n, n)) if K_base is None else K_base
    delta = float(np.linalg.norm(base_mat - K_perturbed, 2)) if K_perturbed.ndim == 2 else float(
        np.max(np.linalg.norm(base_mat - K_perturbed, 2, axis=(-2, -1)))
    )
    grid = ens.grid
    N, dt = grid.n_steps, grid.dt
    # one moment record: the second solve reuses the first one's
    features = brownian_features(ens, basis)
    sa_base = solve_second_adjoint(op, J, K_base, F, P_T, ens, features=features)
    sa_pert = solve_second_adjoint(op, J, K_perturbed, F, P_T, ens, features=features)

    discrepancies = []
    zero = np.zeros(n)
    for v in probes:
        v = np.asarray(v, dtype=float)
        acc = 0.0
        it_b = iter_linearized(op, J, K_base, 0, zero, None, v, ens)
        it_p = iter_linearized(op, J, K_perturbed, 0, zero, None, v, ens)
        for (j, xb), (_, xp) in zip(it_b, it_p):
            if j == N:
                break
            gap = np.einsum("pij,pj->pi", sa_base.Q_paths(j), xb) - np.einsum(
                "pij,pj->pi", sa_pert.Q_paths(j), xp
            )
            acc += dt * float(np.mean(np.sum(gap * gap, axis=-1)))
        discrepancies.append(np.sqrt(acc))
    discrepancies = np.asarray(discrepancies)
    worst = float(discrepancies.max()) if len(discrepancies) else 0.0
    ratio = worst / delta if delta > 0 else 0.0
    return ProbeReport(delta, discrepancies, ratio)
