"""Preset problem instances and independent value oracles.

Three presets are shipped as text files under ``presets/``, one per kind:
a scalar linear-quadratic instance with additive noise, a dissipative
spectral ("heat") instance with the control entering both drift and
diffusion, and a scalar matrix-equation instance with no control problem.
A kind's builder names every key it takes, with its default; all carry
calibrated bias constants for the residual pass rules.

Oracles: a Riccati backward sweep (quadratic/linear/constant value
coefficients, including the diffusion correction for state- and
control-dependent noise) and a brute-force dynamic-programming sweep on a
scalar lattice with Gauss-Hermite transition quadrature.  They are
independent of the Monte Carlo machinery they back-check.
"""

import inspect
import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, LatticeEscapeError, OracleBreakdownError
from .forward import Box, Feedback, Scenario, TimeGrid
from .second_order import rk4_backward
from .spectral import OperatorSpec, make_dirichlet_laplacian


@dataclass
class LqParams:
    """dx = (A x + B u) dt + (C x + D u + sigma) dw with quadratic costs
    0.5 * (x'Mx + u'Nu) running and 0.5 * x'Gx terminal."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sigma: np.ndarray
    M: np.ndarray
    N: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "M", "N", "G"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        n, m = self.B.shape
        if self.A.shape != (n, n) or self.C.shape != (n, n) or self.D.shape != (n, m):
            raise DomainError("inconsistent LQ matrix dimensions")
        if self.N.shape != (m, m) or self.M.shape != (n, n) or self.G.shape != (n, n):
            raise DomainError("inconsistent LQ cost dimensions")


@dataclass
class OracleBundle:
    """Ground-truth value data: either Riccati coefficients and feedback
    gains, or a dynamic-programming table (both expose ``value_at``)."""

    grid: TimeGrid
    # Riccati branch
    P: Optional[np.ndarray] = None       # (n_steps+1, n, n)
    q: Optional[np.ndarray] = None       # (n_steps+1, n)
    r: Optional[np.ndarray] = None       # (n_steps+1,)
    gains: Optional[np.ndarray] = None   # (n_steps+1, m, n)
    affine: Optional[np.ndarray] = None  # (n_steps+1, m)
    # DP branch
    x_lattice: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None  # (n_steps+1, len(lattice))
    policy: Optional[np.ndarray] = None  # (n_steps, len(lattice))

    def value_at(self, x0):
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if self.P is not None:
            return float(0.5 * x0 @ self.P[0] @ x0 + self.q[0] @ x0 + self.r[0])
        return float(np.interp(x0[0], self.x_lattice, self.values[0]))

    def feedback(self):
        """Markov feedback control from the Riccati gains."""
        if self.gains is None:
            raise OracleBreakdownError("no gains in this bundle")
        grid = self.grid

        def fn(t, x):
            j = int(round((t - grid.t0) / grid.dt))
            j = min(max(j, 0), grid.n_steps)
            return -(x @ self.gains[j].T + self.affine[j])

        return Feedback(fn)

    def policy_at(self, x):
        if self.policy is None:
            raise OracleBreakdownError("no policy table in this bundle")
        i = int(np.argmin(np.abs(self.x_lattice - x)))
        return float(self.policy[0, i])


# ----------------------------------------------------------------------
# Riccati oracle
# ----------------------------------------------------------------------

def _riccati_rhs(lq):
    """Time derivative of the value coefficients (so the exact solution
    satisfies dP/dt = rhs, integrated backward from the terminal data).

    The affine parts ride on an augmented state z = (x, 1): with A, B, C, D,
    M padded by a zero row and column and sigma as C's last column, the
    value 0.5 x'Px + q'x + r is 0.5 z' [[P, q], [q', 2 r]] z, and one matrix
    Riccati equation carries P, q and r; its gain is [L, ell].  The padded
    coefficients and their transposes are built once; the returned
    function maps the augmented matrix to (its derivative, the gain)."""
    n, m = lq.B.shape
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = lq.A
    C = np.zeros((n + 1, n + 1))
    C[:n, :n], C[:n, n] = lq.C, lq.sigma
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = lq.M
    B = np.vstack([lq.B, np.zeros((1, m))])
    D = np.vstack([lq.D, np.zeros((1, m))])
    N = lq.N
    At, Bt, Dt = A.T, B.T, D.T

    def rhs(P):
        DtP = Dt @ P
        try:
            L = np.linalg.solve(N + DtP @ D, Bt @ P + DtP @ C)
        except np.linalg.LinAlgError as exc:
            raise OracleBreakdownError("singular control gain block") from exc
        AtP = At @ P
        PBL = P @ B @ L
        CDL = C - D @ L
        return -(AtP + AtP.T - PBL.T - PBL + CDL.T @ P @ CDL + M + L.T @ N @ L), L

    return rhs


def riccati_oracle(lq, grid):
    """Backward RK4 sweep for the LQ value function and feedback gains.

    Substeps are chosen from the coefficient stiffness so accuracy does not
    degrade for strongly dissipative spectra.
    """
    n = lq.A.shape[0]
    steps = grid.n_steps
    rate = 2 * np.linalg.norm(lq.A, 2) + 2 * np.linalg.norm(lq.C, 2) ** 2 + np.linalg.norm(lq.M, 2) + 1.0
    rhs = _riccati_rhs(lq)
    value = np.empty((steps + 1, n + 1, n + 1))  # [[P, q], [q', 2 r]] per step
    gain = np.empty((steps + 1, lq.B.shape[1], n + 1))  # [L, ell] per step
    state = np.zeros((n + 1, n + 1))
    state[:n, :n] = lq.G
    value[steps], gain[steps] = state, rhs(state)[1]
    for j in range(steps - 1, -1, -1):
        state = rk4_backward(lambda P: rhs(P)[0], state, grid.dt, rate)
        state = 0.5 * (state + state.T)
        value[j], gain[j] = state, rhs(state)[1]
    return OracleBundle(grid, P=value[:, :n, :n], q=value[:, :n, n], r=0.5 * value[:, n, n],
                        gains=gain[:, :, :n], affine=gain[:, :, n])


# ----------------------------------------------------------------------
# Dynamic-programming oracle (scalar state)
# ----------------------------------------------------------------------

GH_NODES, GH_WEIGHTS = np.polynomial.hermite.hermgauss(7)


def check_lattice(x_lattice):
    """``x_lattice`` as floats; DomainError unless finite, increasing, 2+ nodes."""
    x = np.asarray(x_lattice, dtype=float)
    if x.ndim != 1 or x.size < 2 or not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
        raise DomainError(f"the state lattice of {x.size} nodes from {x[:1]} to {x[-1:]} is not "
                          f"finite, strictly increasing and at least 2 nodes long")
    return x


def dp_oracle_scalar(scenario, x_lattice, u_grid, grid):
    """Backward value iteration on a scalar lattice.

    Transitions follow the one-step exponential Euler map of the simulator,
    x -> exp(mu dt) (x + a dt + b dw) with mu the generator's eigenvalue;
    the Gaussian expectation uses 7-point Gauss-Hermite quadrature; values
    between lattice nodes are linearly interpolated.  Raises when more than
    1% of the transition mass escapes the lattice from its core region.
    """
    if scenario.n_modes != 1:
        raise DomainError("dp oracle handles scalar scenarios only")
    x_lattice = check_lattice(x_lattice)
    u_grid = np.asarray(u_grid, dtype=float)
    L, U = x_lattice.size, u_grid.size
    dt = grid.dt
    times = grid.times()
    decay = np.exp(scenario.op.eigenvalues[0] * dt)
    noise = np.sqrt(2.0 * dt) * GH_NODES          # N(0, dt) via Hermite nodes
    weights = GH_WEIGHTS / np.sqrt(np.pi)

    values = np.empty((grid.n_steps + 1, L))
    policy = np.empty((grid.n_steps, L))
    values[-1] = scenario.terminal_cost(x_lattice[:, None])

    xx = np.repeat(x_lattice, U)[:, None]         # (L*U, 1)
    uu = np.tile(u_grid, L)[:, None]
    lo, hi = x_lattice[0], x_lattice[-1]
    core = (x_lattice >= lo + 0.25 * (hi - lo)) & (x_lattice <= hi - 0.25 * (hi - lo))
    worst_escape = 0.0

    for j in range(grid.n_steps - 1, -1, -1):
        t = times[j]
        a = scenario.drift(t, xx, uu)[:, 0]
        b = scenario.diffusion(t, xx, uu)[:, 0]
        g = scenario.running_cost(t, xx, uu)
        x_next = decay * (xx[:, 0, None] + a[:, None] * dt + b[:, None] * noise[None, :])
        cont = np.interp(x_next.ravel(), x_lattice, values[j + 1]).reshape(L * U, -1)
        q_values = (g * dt + cont @ weights).reshape(L, U)
        best = np.argmin(q_values, axis=1)
        values[j] = q_values[np.arange(L), best]
        policy[j] = u_grid[best]

        escaped = ((x_next < lo) | (x_next > hi)).astype(float) @ weights
        esc = escaped.reshape(L, U)[np.arange(L), best]
        worst_escape = max(worst_escape, float(esc[core].max()))

    if worst_escape > 0.01:
        raise LatticeEscapeError(
            f"transition mass {worst_escape:.3f} escapes the lattice; widen it"
        )
    return OracleBundle(grid, x_lattice=x_lattice, values=values, policy=policy)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def _unit_costs(n):
    """The cost callbacks both control presets share, g = (|x|^2 + |u|^2)/2
    and h = |x|^2/2 with their derivatives, and the zero state Hessians of
    their drift and diffusion, which are affine in x."""
    eye, zero = np.eye(n), np.zeros((n, n, n))
    return dict(
        running_cost=lambda t, x, u: 0.5 * (np.sum(x * x, axis=-1) + np.sum(u * u, axis=-1)),
        terminal_cost=lambda x: 0.5 * np.sum(x * x, axis=-1),
        running_grad_x=lambda t, x, u: x,
        running_grad_u=lambda t, x, u: u,
        terminal_grad=lambda x: x,
        running_hess_x=lambda t, x, u: eye,
        terminal_hess=lambda x: eye,
        drift_xx=lambda t, x, u: zero,
        diffusion_xx=lambda t, x, u: zero,
    )


def make_lq_scalar(sigma=0.3, T=1.0, x0=1.0, control_bound=6.0,
                   c_bias_first=0.2, c_bias_second=0.5):
    """Scalar preset: dx = u dt + sigma dw, g = (x^2 + u^2)/2, h = x^2/2.
    Returns ``(Scenario, LqParams)``."""
    op = OperatorSpec(1, np.array([0.0]))
    zero11 = np.zeros((1, 1))
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: u,
        diffusion=lambda t, x, u: np.broadcast_to(np.array([sigma]), x.shape),
        control_dim=1,
        control_set=Box(lo=[-control_bound], hi=[control_bound]),
        drift_x=lambda t, x, u: zero11,
        drift_u=lambda t, x, u: np.eye(1),
        diffusion_x=lambda t, x, u: zero11,
        diffusion_u=lambda t, x, u: zero11,
        **_unit_costs(1),
        x0=np.array([x0]),
        c_bias_first=c_bias_first,
        c_bias_second=c_bias_second,
        T=T,
    )
    params = LqParams(
        A=np.zeros((1, 1)), B=np.eye(1), C=np.zeros((1, 1)), D=np.zeros((1, 1)),
        sigma=np.array([sigma]), M=np.eye(1), N=np.eye(1), G=np.eye(1),
    )
    return scenario, params


def make_heat_scenario(n_modes=4, control_dim=2, beta=0.1, drift_gain=1.0,
                       diffusion_gain=0.2, length=1.0, T=1.0, x0=None,
                       control_bound=6.0, c_bias_first=0.2, c_bias_second=0.5):
    """Dissipative spectral preset with control in both drift and diffusion:
    a = B u targets the leading modes, b = beta x + D u.  Returns
    ``(Scenario, LqParams)``."""
    if n_modes < control_dim:
        raise DomainError("n_modes must be at least control_dim")
    op = make_dirichlet_laplacian(n_modes, length)
    pattern = np.zeros((n_modes, control_dim))
    pattern[:control_dim, :control_dim] = np.eye(control_dim)
    B = drift_gain * pattern
    D = diffusion_gain * pattern
    eye = np.eye(n_modes)
    if x0 is None:
        x0 = 2.0 ** -np.arange(n_modes)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n_modes,):
        raise DomainError(f"x0 has {x0.size} entries, expected n_modes = {n_modes}")

    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: u @ B.T,
        diffusion=lambda t, x, u: beta * x + u @ D.T,
        control_dim=control_dim,
        control_set=Box(lo=[-control_bound] * control_dim, hi=[control_bound] * control_dim),
        drift_x=lambda t, x, u: np.zeros((n_modes, n_modes)),
        drift_u=lambda t, x, u: B,
        diffusion_x=lambda t, x, u: beta * eye,
        diffusion_u=lambda t, x, u: D,
        **_unit_costs(n_modes),
        x0=x0,
        c_bias_first=c_bias_first,
        c_bias_second=c_bias_second,
        T=T,
    )
    params = LqParams(
        A=np.diag(op.eigenvalues), B=B, C=beta * eye, D=D, sigma=np.zeros(n_modes),
        M=eye, N=np.eye(control_dim), G=eye,
    )
    return scenario, params


@dataclass(frozen=True)
class MatrixPreset:
    """Scalar matrix-equation instance with no control problem: generator
    eigenvalue 0, J = 0, K = kappa, constant forcing F and terminal value
    P_T.  With F = 0, P(t) = terminal * exp(kappa^2 (T - t))."""

    T: float = 1.0
    kappa: float = 0.5
    forcing: float = 0.0
    terminal: float = 1.0
    c_bias_second: float = 0.5

    def second_order_data(self):
        """``(op, J, K, F, P_T)`` of the matrix equation (J = None is J = 0)."""
        return (OperatorSpec(1, np.array([0.0])), None, np.array([[self.kappa]]),
                np.array([[self.forcing]]), np.array([[self.terminal]]))


# ----------------------------------------------------------------------
# Preset files: line-oriented "key = value" text
# ----------------------------------------------------------------------

def _number_list(raw):
    return np.array([float(tok) for tok in raw.split(",") if tok.strip()])


def _parse_value(raw):
    """An int, a float, a comma list of floats, or else the raw text."""
    raw = raw.strip()
    for parse in (int, float, _number_list):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def parse_preset_text(text):
    cfg = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad preset line: {line!r}")
        key, raw = line.split("=", 1)
        cfg[key.strip()] = _parse_value(raw)
    return cfg


def preset_dir():
    override = os.environ.get("SMPKIT_PRESET_DIR")
    if override:
        return override
    return str(resources.files("smpkit") / "presets")


def load_preset(name):
    """Load a preset by name (searched in the preset directory) or by path."""
    path = name if os.path.sep in str(name) or str(name).endswith(".preset") else None
    if path is None:
        path = os.path.join(preset_dir(), f"{name}.preset")
    if not os.path.exists(path):
        raise FileNotFoundError(f"unknown preset: {name}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_preset_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read preset {path}: {exc}") from None
    return cfg


PRESET_BUILDERS = {"lq_scalar": make_lq_scalar, "heat": make_heat_scenario,
                   "matrix_scalar": MatrixPreset}


def _checked_value(key, value, default):
    """A preset value checked against the type of its builder default:
    an integer >= 1, one finite number, or (default None) finite numbers."""
    if isinstance(default, int):
        if not isinstance(value, int) or value < 1:
            raise ConfigError(f"preset key {key}: expected an integer >= 1, got {value!r}")
        return value
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:
        raise ConfigError(f"preset key {key}: {value!r} is not a number") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"preset key {key}: {value!r} is not finite")
    if default is None:
        return arr
    if arr.ndim != 0:
        raise ConfigError(f"preset key {key}: expected one number, got a list of {arr.size}")
    return float(arr)


def build_preset(cfg):
    """Check a preset mapping against its kind's builder, whose defaults fill
    the keys it leaves out, and build it: ``(Scenario, LqParams)`` for a
    control preset, ``(MatrixPreset, None)`` for a matrix preset.  Raises
    ConfigError naming the bad key."""
    kind = str(cfg.get("kind"))
    if kind not in PRESET_BUILDERS:
        raise ConfigError(f"preset key kind: unknown kind {kind!r} "
                          f"(one of {', '.join(PRESET_BUILDERS)})")
    builder = PRESET_BUILDERS[kind]
    params = inspect.signature(builder).parameters
    args = {key: param.default for key, param in params.items()}
    for key, value in cfg.items():
        if key == "kind":
            continue
        if key not in params:
            raise ConfigError(f"preset key {key}: unknown for kind {kind} "
                              f"(keys: {', '.join(params)})")
        args[key] = _checked_value(key, value, params[key].default)
    if not args["T"] > 0:
        raise ConfigError(f"preset key T: the horizon must be positive (got {args['T']})")
    try:
        built = builder(**args)
    except DomainError as exc:
        raise ConfigError(f"preset kind {kind}: {exc}") from exc
    return (built, None) if kind == "matrix_scalar" else built  # a control builder builds both
