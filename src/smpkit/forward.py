"""Monte Carlo simulation of the controlled forward dynamics.

All simulators use the exponential Euler scheme: the affine update from
drift, control and noise is computed first, then the exact diagonal flow is
applied for one step.  This respects the variation-of-constants form of the
dynamics and is unconditionally stable for stiff dissipative spectra.

Path ensembles are vectorized: states are arrays of shape
``(n_paths, n_steps + 1, n_modes)`` and every coefficient callback receives
batched inputs ``x: (n_paths, n), u: (n_paths, control_dim)``.  Every
step-indexed path array (increments, Brownian paths, states, per-path
controls, gradients, per-path second-order coefficients) is stored
step-major behind that path-first shape: it comes from :func:`step_major`,
so a step slice ``arr[:, j]`` is one contiguous block rather than one
strided read per path.  A control shared by every path is stored once, as
its (n_steps, m) block, and recorded as a read-only broadcast of it.
"""

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, DomainError, SimulationDivergedError
from .spectral import OperatorSpec

OVERFLOW_GUARD = 1e12
CONTAINS_TOL = 1e-12  # how far a control point may lie outside its set and count as in it


def step_major(shape):
    """Uninitialized (n_paths, n_steps, ...) array stored as a C-contiguous
    (n_steps, n_paths, ...) buffer, so a step slice ``arr[:, j]`` is
    contiguous."""
    return np.empty((shape[1], shape[0]) + tuple(shape[2:])).swapaxes(0, 1)


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.T)):
            raise DomainError(f"t0 and T must be finite (got {self.t0!r}, {self.T!r})")
        if self.T <= self.t0:
            raise DomainError("T must exceed t0")
        try:
            n_steps = operator.index(self.n_steps)
        except TypeError:
            raise DomainError(f"n_steps {self.n_steps!r} is not an integer") from None
        if n_steps < 1:
            raise DomainError("n_steps must be >= 1")

    @property
    def dt(self):
        return (self.T - self.t0) / self.n_steps

    def times(self):
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def check_step(j, last, what="step"):
    """``j`` as an int in 0..``last``; DomainError naming ``what`` for anything
    else, a float such as 2.5 included."""
    try:
        j = operator.index(j)
    except TypeError:
        raise DomainError(f"{what} {j!r} is not an integer step") from None
    if not 0 <= j <= last:
        raise DomainError(f"{what} {j} is outside 0..{last}")
    return j


@dataclass(frozen=True)
class BrownianEnsemble:
    """Seeded scalar Brownian increments on a uniform grid.

    Row i is drawn from numpy's child stream ``SeedSequence(seed).spawn(n)[i]``
    (keyed by (seed, i), and computed without building the children), so a
    path's increments do not depend on how many other paths were sampled or
    on any worker layout.
    """

    grid: TimeGrid
    n_paths: int
    increments: np.ndarray  # (n_paths, n_steps) step-major, units sqrt(time)
    seed: int

    @property
    def fingerprint(self):
        return (self.seed, self.grid.t0, self.grid.T, self.grid.n_steps, self.n_paths)

    def brownian_paths(self):
        """Cumulative paths w(t_j), shape (n_paths, n_steps + 1), w(t0) = 0."""
        w = step_major((self.n_paths, self.grid.n_steps + 1))
        w[:, 0] = 0.0
        np.cumsum(self.increments, axis=1, out=w[:, 1:])
        return w


SAMPLE_BLOCK = 256  # paths drawn into one path-major block before the transpose

# the hash constants of numpy's SeedSequence (O'Neill's seed_seq_fe)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult):
    """One hashmix step of numpy's SeedSequence on uint32 values: the mixed
    values and the next hash constant."""
    nxt = const * mult & 0xFFFFFFFF
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ (value >> 16), nxt


def child_states(seed, n_paths):
    """``SeedSequence(seed).spawn(n_paths)[i].generate_state(4, np.uint64)``
    as row i of an (n_paths, 4) array, computed for all i at once.

    A child's entropy is the parent's, zero-padded to the 4-word pool, and
    then its spawn key i.  So its pool is the parent's pool with the one word
    i mixed in, by the hash constant the parent's mixing left behind: 16
    hashmix calls, plus 4 for each seed word beyond the fourth.
    """
    extra = max(0, -(-seed.bit_length() // 32) - 4)
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * extra, 1 << 32) & 0xFFFFFFFF
    key = np.arange(n_paths, dtype=np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool:
        value, hash_a = _hashmix(key, hash_a, _MULT_A)
        mixed = np.uint32(_MIX_L * int(word) & 0xFFFFFFFF) - np.uint32(_MIX_R) * value
        pool.append(mixed ^ (mixed >> 16))
    state = np.empty((n_paths, 8), dtype="<u4")
    hash_b = _INIT_B
    for k in range(8):
        state[:, k], hash_b = _hashmix(pool[k % 4], hash_b, _MULT_B)
    return state.view("<u8").astype(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands precomputed ``generate_state(4, np.uint64)`` words to PCG64."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def sample_brownian(grid, n_paths, seed):
    """Seeded increments: path i is drawn from PCG64 seeded as numpy's
    ``SeedSequence(seed).spawn(n_paths)[i]`` would seed it, with the child
    words of every path computed at once by :func:`child_states` instead of
    building the children."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer (got {seed!r})")
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    words = child_states(int(seed), n_paths)
    incr = step_major((n_paths, grid.n_steps))
    block = np.empty((min(n_paths, SAMPLE_BLOCK), grid.n_steps))
    scale = np.sqrt(grid.dt)
    for lo in range(0, n_paths, SAMPLE_BLOCK):
        rows = block[: min(SAMPLE_BLOCK, n_paths - lo)]
        for row, w in zip(rows, words[lo : lo + len(rows)]):
            np.random.Generator(np.random.PCG64(_Words(w))).standard_normal(out=row)
        rows *= scale
        incr[lo : lo + len(rows)] = rows
    return BrownianEnsemble(grid, n_paths, incr, seed)


# ----------------------------------------------------------------------
# Control sets and control processes
# ----------------------------------------------------------------------

def _points(u, dim):
    """Control points ``u`` as rows (P, dim); DimensionError for points of
    another length, which would otherwise broadcast against the set."""
    u = np.atleast_2d(u)
    if u.shape[-1] != dim:
        raise DimensionError(f"control point has {u.shape[-1]} entries; "
                             f"the set's dimension is {dim}")
    return u


@dataclass(frozen=True)
class Box:
    """Convex product of intervals; projection is the coordinatewise clamp."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or not np.all(lo <= hi):  # a NaN bound fails lo <= hi
            raise DomainError("invalid box bounds")

    @property
    def convex(self):
        return True

    def contains(self, u):
        u = _points(u, self.lo.size)
        return np.all((u >= self.lo - CONTAINS_TOL) & (u <= self.hi + CONTAINS_TOL), axis=-1)

    def projection(self, u):
        return np.clip(u, self.lo, self.hi)

    def sample_grid(self, points_per_dim):
        axes = [np.linspace(l, h, points_per_dim) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class FiniteGrid:
    """Finite (possibly nonconvex) control set; projection picks the nearest
    point, first index winning ties."""

    points: np.ndarray  # (n_points, control_dim)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] < 1:
            raise DomainError("finite control set needs at least one point")
        if not np.isfinite(pts).all():
            raise DomainError("finite control set points must be finite")

    @property
    def convex(self):
        return False

    def contains(self, u):
        u = _points(u, self.points.shape[1])
        d2 = np.sum((u[:, None, :] - self.points[None, :, :]) ** 2, axis=-1)
        return np.min(d2, axis=1) <= CONTAINS_TOL**2

    def projection(self, u):
        u = np.atleast_2d(u)
        d2 = np.sum((u[:, None, :] - self.points[None, :, :]) ** 2, axis=-1)
        return self.points[np.argmin(d2, axis=1)]

    def sample_grid(self, points_per_dim=None):
        return self.points.copy()


@dataclass
class OpenLoop:
    """Control given by its grid values: (n_steps, m) shared across paths, or
    (n_paths, n_steps, m) per path, the one shape ``at`` reads step by step."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def at(self, j, t, x):
        return self.values[:, j, :]


class _Projected(OpenLoop):
    """Per-path values, step-major and already projected onto the control
    set: :func:`simulate_controlled` records them as they are, neither
    projected again nor copied.  Only the optimizer makes one, of the
    iterate it owns."""


@dataclass
class Feedback:
    """Markov feedback u(t, x); the callback receives batched states."""

    fn: Callable[[float, np.ndarray], np.ndarray]

    def at(self, j, t, x):
        return np.asarray(self.fn(t, x), dtype=float)


# ----------------------------------------------------------------------
# Scenario: coefficient bundle and its derivative callbacks
# ----------------------------------------------------------------------

@dataclass
class Scenario:
    """One problem instance: dynamics coefficients, costs, control set.

    ``drift`` and ``diffusion`` map (t, x, u) -> (n_paths, n); ``running_cost``
    maps (t, x, u) -> (n_paths,); ``terminal_cost`` maps x -> (n_paths,).
    Derivatives come from the callbacks alone: a scenario is built without
    them (simulation and costs need none), and a solver that needs a
    missing one raises DomainError naming it.

    A derivative callback returns its per-path stack, (P, n, n) for
    ``drift_x``, or one matrix, (n, n), the same on every path; another
    shape raises DimensionError.  ``drift_x`` (or ``diffusion_x``) giving
    one matrix at a call says a_xx (or b_xx) is 0 there, so only a
    per-path one needs ``drift_xx`` (or ``diffusion_xx``).  With one matrix
    from both at every step, the first adjoint's y folds its driver into
    coefficients up to the per-path rest -dt g_x and J, K are (N, n, n);
    otherwise every read of y, and of the second adjoint's P, re-evaluates
    the per-path driver.
    """

    op: OperatorSpec
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    control_dim: int
    control_set: object
    drift_x: Optional[Callable] = None          # (t,x,u) -> (P,n,n), [p,i,j] = d a_i / d x_j
    drift_u: Optional[Callable] = None          # (t,x,u) -> (P,n,m)
    diffusion_x: Optional[Callable] = None
    diffusion_u: Optional[Callable] = None
    running_grad_x: Optional[Callable] = None   # (t,x,u) -> (P,n)
    running_grad_u: Optional[Callable] = None   # (t,x,u) -> (P,m)
    terminal_grad: Optional[Callable] = None    # x -> (P,n)
    running_hess_x: Optional[Callable] = None   # (t,x,u) -> (P,n,n)
    terminal_hess: Optional[Callable] = None    # x -> (P,n,n)
    drift_xx: Optional[Callable] = None         # (t,x,u) -> (P,n,n,n), [p,k,i,j]
    diffusion_xx: Optional[Callable] = None
    # preset metadata (pass-rule bias constants, initial state, horizon)
    x0: Optional[np.ndarray] = None
    c_bias_first: float = 1.0
    c_bias_second: float = 1.0
    T: Optional[float] = None

    @property
    def n_modes(self):
        return self.op.n_modes

    def _callback(self, name):
        """The derivative callback ``name``; DomainError if it is missing."""
        cb = getattr(self, name)
        if cb is None:
            raise DomainError(f"the scenario has no {name} callback")
        return cb

    # -- first derivatives ------------------------------------------------
    def jacobian(self, which, wrt, t, x, u):
        """d which_i / d wrt_j for ``which`` "a"/"b" and ``wrt`` "x"/"u": the
        callback's one (n, k) matrix as it is, or else per path (P, n, k)."""
        name = f"{'drift' if which == 'a' else 'diffusion'}_{wrt}"
        shape = (self.n_modes, self.n_modes if wrt == "x" else self.control_dim)
        jac = np.asarray(self._callback(name)(t, x, u), dtype=float)
        return jac if jac.shape == shape else _expand(jac, x.shape[0], shape)

    def vjp(self, which, wrt, t, x, u, k):
        """Per-path k^T d(which)/d(wrt): sum_i k[p, i] jac[p, i, :] for the
        Jacobian of a or b in x or u.  A Jacobian that is one matrix is
        applied with one product (``np.dot``: ``@`` takes a slow path for a
        one-column k)."""
        jac = self.jacobian(which, wrt, t, x, u)
        if jac.ndim == 2:
            return np.dot(k, jac)
        return np.einsum("pij,pi->pj", jac, k)

    def grad_x_running(self, t, x, u):
        return _expand(self._callback("running_grad_x")(t, x, u), x.shape[0], (self.n_modes,))

    def grad_u_running(self, t, x, u):
        return _expand(self._callback("running_grad_u")(t, x, u), x.shape[0],
                       (self.control_dim,))

    def grad_terminal(self, x):
        return _expand(self._callback("terminal_grad")(x), x.shape[0], (self.n_modes,))

    # -- second derivatives -----------------------------------------------
    def hess_terminal(self, x):
        return _expand(self._callback("terminal_hess")(x), x.shape[0], (self.n_modes,) * 2)

    def hess_x_running(self, t, x, u):
        return _expand(self._callback("running_hess_x")(t, x, u), x.shape[0],
                       (self.n_modes,) * 2)

    def hamiltonian_hess_x(self, t, x, u, k1, k2):
        """State Hessian of <k1, a> + <k2, b> - g, shape (P, n, n).  A
        missing ``drift_xx`` is a_xx = 0 where ``drift_x`` returns one
        matrix at this call (``diffusion_xx`` likewise)."""
        n, p = self.n_modes, x.shape[0]
        out = -self.hess_x_running(t, x, u)
        for name, k in (("drift", k1), ("diffusion", k2)):
            if getattr(self, f"{name}_xx") is None and np.shape(
                    self._callback(f"{name}_x")(t, x, u)) == (n, n):
                continue
            tensor = _expand(self._callback(f"{name}_xx")(t, x, u), p, (n, n, n))
            out = out + np.einsum("pk,pkij->pij", np.atleast_2d(k), tensor)
        return out


def _expand(arr, n_paths, trailing):
    """A derivative callback's result as (n_paths, *trailing): a per-path
    stack as it is, or one ``trailing`` block, the same on every path."""
    arr = np.asarray(arr, dtype=float)
    target = (n_paths,) + tuple(trailing)
    if arr.shape == target:
        return arr
    if arr.shape != tuple(trailing):
        raise DimensionError(f"derivative callback returned shape {arr.shape}, "
                             f"expected {target} or {tuple(trailing)}")
    return np.broadcast_to(arr, target)


def path_constant_steps(callback, traj, shape):
    """(N, *shape) values of a derivative ``callback(t_j, x_j, u_j)`` along
    ``traj`` when it returns one ``shape`` matrix, the same on every path,
    at every step; otherwise, or with no callback, None."""
    if callback is None:
        return None
    times = traj.grid.times()
    steps = []
    for j in range(traj.grid.n_steps):
        steps.append(np.asarray(callback(times[j], traj.states[:, j], traj.controls_used[:, j]),
                                dtype=float))
        if steps[-1].shape != shape:
            return None
    return np.array(steps)


# ----------------------------------------------------------------------
# State ensembles and simulators
# ----------------------------------------------------------------------

@dataclass
class StateEnsemble:
    """A simulated ensemble.  ``controls_used`` is (n_paths, n_steps, m):
    step-major, or for a shared open-loop control a read-only broadcast of
    its projected (n_steps, m) block, with stride 0 on paths."""

    grid: TimeGrid
    states: np.ndarray          # (n_paths, n_steps + 1, n), step-major
    controls_used: Optional[np.ndarray] = None
    fingerprint: Optional[tuple] = None

    @property
    def n_paths(self):
        return self.states.shape[0]


def _check_finite(values, step, path_axis=0):
    """Divergence guard: NaN, +-inf or an entry beyond OVERFLOW_GUARD in
    ``values`` raises SimulationDivergedError at ``step``, naming the first
    path (an index along ``path_axis``) that holds one."""
    # two reductions decide (NaN fails the comparison); only a failure pays
    # for the scan that finds the path
    if max(values.max(), -values.min()) <= OVERFLOW_GUARD:
        return
    per_path = np.moveaxis(values, path_axis, 0).reshape(values.shape[path_axis], -1)
    bad = ~np.isfinite(per_path) | (np.abs(per_path) > OVERFLOW_GUARD)
    raise SimulationDivergedError(step, int(np.flatnonzero(bad.any(axis=1))[0]))


def _initial_states(x0, n_paths, n):
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        if x0.size != n:
            raise DimensionError(f"x0 has {x0.size} modes, expected {n}")
        return np.broadcast_to(x0, (n_paths, n)).copy()
    if x0.shape != (n_paths, n):
        raise DimensionError(f"per-path x0 must have shape {(n_paths, n)}")
    return x0.copy()


def simulate_controlled(scenario, x0, control, ens):
    """Integrate the controlled dynamics over the full grid.

    Controls are projected onto the scenario's control set before use and the
    projected values are recorded in ``controls_used``.  An ``OpenLoop``
    takes (n_steps, m) values shared by every path or (n_paths, n_steps, m)
    per path; any other shape raises DimensionError, as does a ``Feedback``
    step whose values are not (n_paths, m), or (n_paths,) with m = 1.
    Shared values are projected once, as one block, and recorded as a
    read-only broadcast of it (no per-path copy), so the callbacks receive
    a read-only ``u``; per-path values and a ``Feedback`` are projected step
    by step into a step-major buffer.  Any other ``control`` raises
    DomainError.
    """
    op = scenario.op
    grid = ens.grid
    dt = grid.dt
    n, m, N = op.n_modes, scenario.control_dim, grid.n_steps
    shared = False
    if isinstance(control, OpenLoop):
        shape = control.values.shape
        if shape not in ((N, m), (ens.n_paths, N, m)):
            raise DimensionError(f"open-loop values have shape {shape}, expected "
                                 f"{(N, m)} or {(ens.n_paths, N, m)}")
        shared = len(shape) == 2
    elif not isinstance(control, Feedback):
        raise DomainError(f"control must be an OpenLoop or a Feedback "
                          f"(got {type(control).__name__})")
    projected = isinstance(control, _Projected)
    decay = np.exp(op.eigenvalues * dt)
    x = _initial_states(x0, ens.n_paths, n)
    states = step_major((ens.n_paths, N + 1, n))
    if shared:
        controls = np.broadcast_to(scenario.control_set.projection(control.values),
                                   (ens.n_paths, N, m))
    elif projected:
        controls = control.values
    else:
        controls = step_major((ens.n_paths, N, m))
    states[:, 0] = x
    times = grid.times()
    for j in range(N):
        t = times[j]
        if not (shared or projected):
            controls[:, j] = scenario.control_set.projection(_step_values(control.at(j, t, x),
                                                                          j, ens.n_paths, m))
        u = controls[:, j]
        dw = ens.increments[:, j : j + 1]
        x = decay * (
            x + scenario.drift(t, x, u) * dt + scenario.diffusion(t, x, u) * dw
        )
        _check_finite(x, j + 1)
        states[:, j + 1] = x
    return StateEnsemble(grid, states, controls, ens.fingerprint)


def _step_values(u, j, n_paths, m):
    """One step's control values as (n_paths, m), taken as (n_paths,) when m = 1."""
    if m == 1 and u.shape == (n_paths,):
        return u[:, None]
    if u.shape != (n_paths, m):
        raise DimensionError(f"control values at step {j} have shape {u.shape}, expected "
                             f"{(n_paths, m)}" + (f" or {(n_paths,)}" if m == 1 else ""))
    return u


def at_step(arr, j, rank):
    """Step j of a step-indexed input whose value at one step has ``rank``
    axes: None stays None, a constant (rank axes) is returned as it is, a
    time-indexed (N, ...) array gives ``arr[j]`` and a path-indexed
    (P, N, ...) one ``arr[:, j]``."""
    if arr is None or arr.ndim == rank:
        return arr
    if arr.ndim == rank + 1:
        return arr[j]
    return arr[:, j]


def _linear_part(M, x, v):
    """Per-path M x + v for step slices M (n, n) or (P, n, n) and v (n,) or
    (P, n); a missing term is zero."""
    out = 0.0
    if M is not None:
        out = np.einsum("ij,pj->pi" if M.ndim == 2 else "pij,pj->pi", M, x)
    return out if v is None else out + v


def iter_linearized(op, J, K, t0_index, xi, u, v, ens):
    """Yield (j, x_j) for dx = ((A + J)x + u)dt + (Kx + v)dw from t0_index.

    J, K may be None, (n, n), (N, n, n) or (P, N, n, n); u, v None, (N, n)
    or (P, N, n)."""
    grid = ens.grid
    dt = grid.dt
    decay = np.exp(op.eigenvalues * dt)
    J, K, u, v = (None if c is None else np.asarray(c, dtype=float) for c in (J, K, u, v))
    x = _initial_states(xi, ens.n_paths, op.n_modes)
    yield t0_index, x
    for j in range(t0_index, grid.n_steps):
        dw = ens.increments[:, j : j + 1]
        drift = _linear_part(at_step(J, j, 2), x, at_step(u, j, 1))
        noise = _linear_part(at_step(K, j, 2), x, at_step(v, j, 1))
        x = decay * (x + drift * dt + noise * dw)
        _check_finite(x, j + 1)
        yield j + 1, x


def iter_linear_test(op, t0_index, eta, v1, v2, ens):
    """Test dynamics dz = (Az + v1)dt + v2 dw: :func:`iter_linearized` with
    J = K = None."""
    return iter_linearized(op, None, None, t0_index, eta, v1, v2, ens)


def cost_paths(scenario, traj):
    """Per-path cost: left-endpoint quadrature of the running cost plus the
    terminal cost."""
    grid = traj.grid
    times = grid.times()
    total = np.zeros(traj.n_paths)
    for j in range(grid.n_steps):
        total += scenario.running_cost(times[j], traj.states[:, j], traj.controls_used[:, j])
    total *= grid.dt
    total += scenario.terminal_cost(traj.states[:, -1])
    return total
