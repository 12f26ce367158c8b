"""Monte Carlo verification of the defining duality identities.

A backward pair is accepted as a solution of its equation exactly when its
pairings against freely chosen forward test data balance.  So a verifier
takes the solved adjoint, which holds that equation (operator, ensemble and,
at second order, J, K, F and P_T), and the test tuples only.  The verifiers
evaluate both sides of the first-order identity

    E<z(T), y_T> - E int <z, f> dt
        = E<eta, y(t)> + E int <v1, y> dt + E int <v2, Y> dt

and of the second-order identity

    E<P_T x1(T), x2(T)> - E int <F x1, x2> dt
        = E<P(t) xi1, xi2> + E int [ <P u1, x2> + <P x1, u2> + <P K x1, v2>
          + <P v1, K x2 + v2> + <Q v1, x2> + <Q x1, v2> ] dt

with left-endpoint quadrature.  All test tuples of one call share one
pass per order.  Residual standard errors come from the per-path residual
(both sides share paths, so the difference is the low-variance statistic).
Pass rule: |residual| <= k_sigma * stderr + bias_budget, with bias_budget =
c_bias * dt calibrated per preset.

Factored forcings.  Random test tuples are drawn as descriptions
(``TupleSpec``): a forcing is a time profile times m(w), with m = 1 for a
deterministic one and sin(c w + phase) for an adapted one.  At step j the
forcings of K tuples in one slot are therefore a shared (K, n) profile block
times a (K, P) modulation.  A pairing contracts the profile first, in one
product with whatever it meets, and then scales the (K, P) result by the
modulation, so no tuple's (P, N, n) forcing, nor any (n, K, P) forcing
stack, is built.  The verifiers take only descriptions; ``materialize``
turns one into the per-path arrays it stands for.

Active prefix.  The tuples are sorted by t_index, so the ones active at
step j (t_index <= j) are a prefix and only that prefix is stepped and
paired; reports come back in input order.

First order, summation by parts.  With the per-path recursion of the pair's
own terminal value and driver, b_N = y_T and b_j = S(dt) b_{j+1} - dt f_j,
the test state z of a tuple started at t telescopes out of the lhs exactly:

    <z_N, y_T> - sum_{j>=t} dt <z_j, f_j>
        = <eta, b_t> + sum_{j>=t} <dt v1_j + dw_j v2_j, S(dt) b_{j+1}>.

So one backward pass over the (P, n) vector b serves every tuple, no test
state is simulated, and each step costs a few (K, n) x (n, P) products.

Second order.  The lhs is bilinear in the two test states, so x1 and x2 are
stepped forward for all tuples at once, paths innermost.  Each step reads
(P_j, Q_j) once (``SecondOrderAdjoint.at(j)``); the matrices the forcings
meet, P, P*, Q + K*P and (P K + Q)*, are transposes of that read with paths
innermost, multiplied with the profiles as matrix products, not as
per-path contractions.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError
# iter_linear_test is unused here, but perfbench/tracing.py wraps its lookup
# in this module, so the name stays importable from it
from .forward import (  # noqa: F401
    _check_finite,
    at_step,
    check_step,
    iter_linear_test,
    iter_linearized,
)
from .second_order import _shaped, brownian_features, solve_second_adjoint


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
            "n_paths": self.n_paths,
            "dt": self.dt,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "stderr": self.stderr,
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
        """The arrays of the tuple, given the Brownian paths w of the ensemble;
        an absent forcing stays None."""
        return (self.t_index,
                *(s.at(w[:, self.t_index]) for s in self.starts),
                *(None if f is None else f.materialize(w) for f in self.forcings))


def _smooth_profile(op, ens, rng):
    N = ens.grid.n_steps
    n = op.n_modes
    return rng.standard_normal((1, n)) * np.cos(
        rng.uniform(0, 4) * np.linspace(0.0, 1.0, N) + rng.uniform(0, 2 * np.pi)
    )[:, None]


def _forcing_specs(op, ens, rng, count):
    """`count` forcings with exactly one path-adapted member (the rest are
    deterministic profiles): exercises every pairing while keeping one
    path-dependent forcing per tuple."""
    adapted_slot = int(rng.integers(0, count))
    out = []
    for k in range(count):
        profile = _smooth_profile(op, ens, rng)
        if k == adapted_slot:
            out.append(ForcingSpec(profile, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)))
        else:
            out.append(ForcingSpec(profile))
    return tuple(out)


def _start_spec(op, rng):
    return StartSpec(rng.standard_normal(op.n_modes), rng.standard_normal(op.n_modes))


def describe_first_test(op, ens, rng):
    """Description of a random tuple (t_index, eta, v1, v2) with eta
    measurable at t_index."""
    t_index = int(rng.integers(0, ens.grid.n_steps // 2 + 1))
    eta = _start_spec(op, rng)
    return TupleSpec(t_index, (eta,), _forcing_specs(op, ens, rng, 2))


def describe_second_test(op, ens, rng):
    """Description of a random tuple (t_index, xi1, xi2, u1, u2, v1, v2)."""
    t_index = int(rng.integers(0, ens.grid.n_steps // 2 + 1))
    forcings = _forcing_specs(op, ens, rng, 4)
    starts = (_start_spec(op, rng), _start_spec(op, rng))
    return TupleSpec(t_index, starts, forcings)


def random_first_test(op, ens, rng):
    """Random tuple (t_index, eta, v1, v2) with eta measurable at t_index."""
    return describe_first_test(op, ens, rng).materialize(ens.brownian_paths())


def random_second_test(op, ens, rng):
    """Random tuple (t_index, xi1, xi2, u1, u2, v1, v2)."""
    return describe_second_test(op, ens, rng).materialize(ens.brownian_paths())


# ----------------------------------------------------------------------
# the stacked pass
# ----------------------------------------------------------------------

def _dot(a, b):
    """Per (tuple, path) inner product of two (m, n, P) stacks."""
    return np.einsum("kip,kip->kp", a, b)


def _apply(M, x):
    """M x for every tuple and path of an (m, n, P) stack, with M constant
    (n, n) or per path (P, n, n)."""
    if M.ndim == 2:
        return np.matmul(M, x)
    return np.einsum("pil,klp->kip", M, x)


def _times(M_row, K):
    """M K in the paths-innermost layout M_row[i, l, p] = M_p[i, l], for K
    constant (n, n) or per path (P, n, n)."""
    if K.ndim == 2:
        return np.matmul(K.T, M_row)
    return np.einsum("ilp,pla->iap", M_row, K)


def _coeff_step(coeff, j):
    """Step j of a coefficient; None when it is absent or zero at this step
    (a zero coefficient contributes nothing)."""
    M = at_step(coeff, j, 2)
    return None if M is None or not M.any() else M


class _StepForcing(NamedTuple):
    """One forcing slot of the m active tuples at one step, factored: row k
    is profile[k] (n,) times modulation[k] (P,), a modulation of None being
    1."""

    profile: np.ndarray
    modulation: Optional[np.ndarray]

    def modulate(self, out):
        """Scale per-tuple pairings (m, P) of the profiles by the modulation."""
        if self.modulation is not None:
            out *= self.modulation
        return out

    def pair(self, V):
        """<forcing, V> (m, P) for a per-path vector V (P, n)."""
        return self.modulate(self.profile @ V.T)

    def apply(self, MT):
        """M times the profiles, unmodulated, as an (m, n, P) stack: one
        product with MT[l, i, p] = M_p[i, l]."""
        n = MT.shape[0]
        return (self.profile @ MT.reshape(n, -1)).reshape(len(self.profile), n, -1)

    def pair_stack(self, R):
        """<forcing, R> (m, P) for an (m, n, P) stack R, one vector per tuple."""
        return self.modulate(np.einsum("ki,kip->kp", self.profile, R))


class _Forcing:
    """One forcing slot of the sorted tuples, kept as step-major profiles
    (N, K, n), zero before their tuple's t_index, with the frequency and
    phase of the adapted ones."""

    def __init__(self, entries, t_indices, N, n, n_paths):
        self.present = any(e is not None for e in entries)
        self.n_paths = n_paths
        self.profiles = np.zeros((N, len(entries), n))
        adapted = []
        for k, (entry, t) in enumerate(zip(entries, t_indices)):
            if entry is None:
                continue
            if not isinstance(entry, ForcingSpec):
                raise DimensionError(f"a forcing is a ForcingSpec or None, not "
                                     f"{type(entry).__name__}")
            self.profiles[t:, k] = _shaped(entry.profile, ((N, n),), "a forcing profile")[t:]
            if entry.freq is not None:
                adapted.append((k, entry.freq, entry.phase))
        self.rows = np.array([k for k, _, _ in adapted], dtype=int)
        self.freq = np.array([f for _, f, _ in adapted])[:, None]
        self.phase = np.array([p for _, _, p in adapted])[:, None]

    def at(self, j, m, w_j):
        """The slot at step j over the first m tuples, or None if no tuple
        has this forcing."""
        if not self.present:
            return None
        modulation = None
        a = int(np.searchsorted(self.rows, m))  # adapted rows among the m
        if a:
            modulation = np.ones((m, self.n_paths))
            modulation[self.rows[:a]] = np.sin(self.freq[:a] * w_j + self.phase[:a])
        return _StepForcing(self.profiles[j, :m], modulation)


class _Tuples:
    """K test tuples sorted by t_index, so that those active at step j
    (t_index <= j) are the first m: their initial data and forcing slots.
    ``reports`` hands the results back in input order."""

    def __init__(self, tests, n_starts, n_forcings, op, ens):
        grid = ens.grid
        self.N, self.dt, self.n, self.P = grid.n_steps, grid.dt, op.n_modes, ens.n_paths
        self.K = len(tests)
        for test in tests:
            if not isinstance(test, TupleSpec):
                raise DimensionError(f"a test tuple is a TupleSpec, not {type(test).__name__}")
            if len(test.starts) != n_starts or len(test.forcings) != n_forcings:
                raise DimensionError(f"a test tuple has {n_starts} initial data and "
                                     f"{n_forcings} forcings")
            for start in test.starts:
                if not isinstance(start, StartSpec):
                    raise DimensionError(f"an initial datum is a StartSpec, not "
                                         f"{type(start).__name__}")
                for c in (start.c0, start.c1):
                    _shaped(c, ((self.n,),), "an initial datum's coefficient")
        t_indices = [check_step(test.t_index, self.N, "t_index") for test in tests]
        self.order = sorted(range(self.K), key=lambda k: t_indices[k])
        self.t_index = np.array([t_indices[k] for k in self.order], dtype=int)
        self.starts = [tests[k].starts for k in self.order]
        self.forcings = [
            _Forcing([tests[k].forcings[i] for k in self.order], self.t_index, self.N, self.n,
                     self.P)
            for i in range(n_forcings)
        ]
        self.w = ens.brownian_paths()
        self.first = int(self.t_index[0]) if self.K else self.N + 1
        self.decay = np.exp(op.eigenvalues * self.dt)
        self.increments = ens.increments

    def zeros(self):
        return np.zeros((self.K, self.P))

    def active(self, j):
        """Number of tuples with t_index <= j."""
        return int(np.searchsorted(self.t_index, j, side="right"))

    def starting(self, j):
        """The (sorted) tuples that start at step j."""
        return range(int(np.searchsorted(self.t_index, j)), self.active(j))

    def start(self, k, i):
        """Initial datum i of sorted tuple k, per path (P, n)."""
        return self.starts[k][i].at(self.w[:, self.t_index[k]])

    def forcings_at(self, j, m):
        return [f.at(j, m, self.w[:, j]) for f in self.forcings]

    def reports(self, identity, lhs, rhs, bias_budget, k_sigma):
        resid = lhs - rhs
        if self.P > 1:
            stderr = resid.std(axis=1, ddof=1) / np.sqrt(self.P)
        else:
            stderr = np.zeros(self.K)
        out = [None] * self.K
        for k, t, lo, hi, se in zip(self.order, self.t_index, lhs.mean(axis=1),
                                    rhs.mean(axis=1), stderr):
            out[k] = IdentityReport(identity, int(t), float(lo), float(hi), float(se), self.P,
                                    self.dt, bias_budget, k_sigma)
        return out


def verify_first_identities(pair, tests, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the first-order identity of ``pair``'s own
    equation, on its operator and ensemble, for every test tuple in one
    backward pass; one report per tuple, in order.

    A tuple is a ``TupleSpec`` of (t_index, eta, v1, v2): eta a
    ``StartSpec``, v1 and v2 a ``ForcingSpec`` or None.  The lhs is taken by
    summation by parts against b_j (see the module docstring), so no test
    state is simulated."""
    tuples = _Tuples(tests, 1, 2, pair.op, pair.ens)
    N, dt = tuples.N, tuples.dt
    lhs, rhs = tuples.zeros(), tuples.zeros()
    b = y_j = pair.y_T
    for j in range(N, tuples.first - 1, -1):
        m = tuples.active(j)
        if j < N:
            Sb = b * tuples.decay
            v1, v2 = tuples.forcings_at(j, m)
            # the pair's own driver, from the same read as (y_j, Y_j)
            y_j, Y_j, f_j = pair.at(j, with_driver=True)
            b = Sb - dt * f_j
            if v1 is not None:
                lhs[:m] += dt * v1.pair(Sb)
                # pair v1 against the pre-update conditional mean y_j + dt f_j:
                # same O(dt) quadrature of the integral, but the one the
                # stepping scheme telescopes exactly
                rhs[:m] += dt * v1.pair(y_j + dt * f_j)
            if v2 is not None:
                lhs[:m] += v2.pair(Sb) * tuples.increments[:, j]
                rhs[:m] += dt * v2.pair(Y_j)
            _check_finite(b, j)
        for k in tuples.starting(j):
            eta = tuples.start(k, 0)
            lhs[k] += np.einsum("pi,pi->p", eta, b)
            rhs[k] += np.einsum("pi,pi->p", eta, y_j)
        _check_finite(lhs[:m], j, path_axis=1)
        _check_finite(rhs[:m], j, path_axis=1)
    return tuples.reports("first", lhs, rhs, bias_budget, k_sigma)


def verify_first_identity(pair, test, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the first-order identity for one ``TupleSpec``
    (t_index, eta, v1, v2); see :func:`verify_first_identities`."""
    return verify_first_identities(pair, [test], bias_budget, k_sigma)[0]


def _step_states(xa, out, SG, SK, u, v, dt, dw, decay):
    """x_{j+1} = S(dt) (x + (J x + u) dt + (K x + v) dw) for the m test states
    of the blocks xa (m, 2n+2, P), written into out (m, n, P).  A block is
    [x; dw x; dt u modulation; dw v modulation], so with J and K the same on
    every path the step is one batched product with [S(dt) (I + dt J),
    S(dt) K, S(dt) u profile, S(dt) v profile]; SG = S(dt) (I + dt J) and SK
    = S(dt) K (None when K is) that differ per path are applied apart."""
    m, n = out.shape[:2]
    x, dw_x = xa[:, :n], xa[:, n:2 * n]
    cols = np.zeros((m, n, 2 * n + 2))
    per_path = []
    if SG.ndim == 2:
        cols[:, :, :n] = SG
    else:
        per_path.append((SG, x))
    if SK is not None:
        np.multiply(x, dw, out=dw_x)
        if SK.ndim == 2:
            cols[:, :, n:2 * n] = SK
        else:
            per_path.append((SK, dw_x))
    for row, f, coef in ((2 * n, u, dt), (2 * n + 1, v, dw)):
        if f is not None:
            xa[:, row] = coef if f.modulation is None else f.modulation * coef
            cols[:, :, row] = f.profile * decay
    np.matmul(cols, xa, out=out)
    for M, z in per_path:
        out += _apply(M, z)
    return out


def verify_second_identities(sa, tests, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the second-order identity of ``sa``'s own
    equation, the operator, ensemble and data J, K, F and P_T it was solved
    from, for every test tuple in one stacked pass; one report per tuple, in
    order.  A non-finite entry is reported where it reaches the test states.

    A tuple is a ``TupleSpec`` of (t_index, xi1, xi2, u1, u2, v1, v2), with
    starts and forcings as :func:`verify_first_identities` takes them.
    The pairings are grouped by what the forcings meet: <x2, P u1 + (Q +
    K*P) v1> + <P* u2 + (P K + Q)* v2, x1> + <v2, P v1>, each matrix times
    a forcing profile being one product on P_j or Q_j with paths innermost."""
    tuples = _Tuples(tests, 2, 4, sa.op, sa.ens)
    N, dt, n, P = tuples.N, tuples.dt, tuples.n, tuples.P
    decay = tuples.decay

    lhs, rhs = tuples.zeros(), tuples.zeros()
    # test-state blocks (K, 2n+2, P), paths innermost (see _step_states);
    # each steps into its spare
    x1, x2, spare1, spare2 = (np.zeros((tuples.K, 2 * n + 2, P)) for _ in range(4))
    for j in range(tuples.first, N + 1):
        m = tuples.active(j)
        new = tuples.starting(j)
        for k in new:
            x1[k, :n], x2[k, :n] = (tuples.start(k, i).T for i in (0, 1))
        a1, a2 = x1[:m, :n], x2[:m, :n]
        P_j, Q_j = (sa.P_paths(N), None) if j == N else sa.at(j)
        if new:
            rhs[new.start:new.stop] += _dot(a2[new.start:], _apply(P_j, a1[new.start:]))
        if j == N:
            lhs[:m] += _dot(a2, _apply(sa.P_T, a1))
            break
        u1, u2, v1, v2 = tuples.forcings_at(j, m)
        Jj, Kj, Fj = (_coeff_step(c, j) for c in (sa.J, sa.K, sa.F))
        if Fj is not None:
            lhs[:m] -= dt * _dot(a2, _apply(Fj, a1))

        # paths innermost, as transposes of the read: PT_row[l, i, p] =
        # P_p[i, l] and P_row[i, l, p] = P_p[i, l]; sums with them are new
        # arrays, so the read itself is never written
        acc = np.zeros((m, P))
        PT_row = np.ascontiguousarray(P_j.T)
        P_row = np.ascontiguousarray(P_j.transpose(1, 2, 0))
        if u1 is not None:
            acc += u1.modulate(_dot(a2, u1.apply(PT_row)))
        if v1 is not None:
            QK = Q_j.T  # Q* + P* K, the layout of (Q + K* P)*
            if Kj is not None:
                QK = QK + _times(PT_row, Kj)
            acc += v1.modulate(_dot(a2, v1.apply(QK)))
        if u2 is not None:
            acc += u2.modulate(_dot(u2.apply(P_row), a1))
        if v2 is not None:
            PKQ = Q_j.transpose(1, 2, 0)  # P K + Q, the layout of its transpose's
            if Kj is not None:
                PKQ = PKQ + _times(P_row, Kj)
            acc += v2.modulate(_dot(v2.apply(PKQ), a1))
            if v1 is not None:
                acc += v1.modulate(v2.pair_stack(v1.apply(PT_row)))
        rhs[:m] += dt * acc

        SG = decay[:, None] * (np.eye(n) if Jj is None else np.eye(n) + dt * Jj)
        SK = None if Kj is None else decay[:, None] * Kj
        dw = tuples.increments[:, j]
        for x, spare, u, v in ((x1, spare1, u1, v1), (x2, spare2, u2, v2)):
            _check_finite(_step_states(x[:m], spare[:m, :n], SG, SK, u, v, dt, dw, decay),
                          j + 1, path_axis=2)
        x1, spare1, x2, spare2 = spare1, x1, spare2, x2
    return tuples.reports("second", lhs, rhs, bias_budget, k_sigma)


def verify_second_identity(sa, test, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the second-order identity for one ``TupleSpec``
    (t_index, xi1, xi2, u1, u2, v1, v2); see :func:`verify_second_identities`."""
    return verify_second_identities(sa, [test], bias_budget, k_sigma)[0]


@dataclass
class ProbeReport:
    delta: float
    discrepancies: np.ndarray  # one per probe forcing
    ratio: float               # max discrepancy / delta (inf-safe for delta=0)


def lipschitz_probe(op, J, K_base, K_perturbed, F, P_T, probes, ens):
    """Stability of the martingale-component functional under a coefficient
    change K -> K_perturbed (None is K = 0) of size delta = ||K -
    K_perturbed||, the largest spectral norm over steps and paths.

    Both systems are solved on the identical ensemble (common random
    numbers).  Each probe forcing v, (n,), (N, n) or (n_paths, N, n), drives
    the homogeneous test dynamics (xi = 0, u = 0) under the matching solve's
    J and K, and the discrepancy is the L2(dt x paths) norm of Q(s) x^v(s)
    between the two solves.
    """
    grid = ens.grid
    N, dt, n = grid.n_steps, grid.dt, op.n_modes
    probes = [_shaped(v, ((n,), (N, n), (ens.n_paths, N, n)), "a probe") for v in probes]
    # one moment record: the second solve reuses the first one's
    features = brownian_features(ens)
    sa_base = solve_second_adjoint(op, J, K_base, F, P_T, ens, features=features)
    sa_pert = solve_second_adjoint(op, J, K_perturbed, F, P_T, ens, features=features)
    base, pert = (np.zeros((n, n)) if sa.K is None else sa.K for sa in (sa_base, sa_pert))
    delta = float(np.max(np.linalg.norm(base - pert, 2, axis=(-2, -1))))

    discrepancies = []
    zero = np.zeros(n)
    for v in probes:
        acc = 0.0
        it_b = iter_linearized(op, sa_base.J, sa_base.K, 0, zero, None, v, ens)
        it_p = iter_linearized(op, sa_pert.J, sa_pert.K, 0, zero, None, v, ens)
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
