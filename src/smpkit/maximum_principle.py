"""Optimality machinery: Hamiltonian, first- and second-order conditions,
a projected-gradient control search, and the spike-perturbation experiment.

The scalar functional tested at a candidate optimum is

    S(t, u) = H(t, xbar, ubar, y, Y) - H(t, xbar, u, y, Y)
              - 0.5 < P (b(t, xbar, u) - b(t, xbar, ubar)),
                       b(t, xbar, u) - b(t, xbar, ubar) >

with H(t, x, u, k1, k2) = <k1, a> + <k2, b> - g.  At a minimizer S >= 0 for
every admissible u at almost every time, and the cost response to a
width-epsilon control spike is E int_{spike} S dt + o(epsilon), which the
spike experiment measures directly with common random numbers.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adjoint import check_same_ensemble, solve_first_adjoint
from .errors import DomainError, StepRuleError, WrongTheoremError
from .forward import (Feedback, OpenLoop, _Projected, check_budget, check_integer, check_step,
                      cost_paths, path_constant_steps, simulate_controlled, step_major)
from .second_order import solve_second_adjoint

TOL_STEP = 1e-6  # projected_gradient stops once an update is shorter than this


def check_admissible(control_set, u):
    """``u`` as a 2-D float array; DomainError unless each row is in ``control_set``."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if not np.all(control_set.contains(u)):
        raise DomainError("control point outside the admissible set")
    return u


def hamiltonian(scenario, t, x, u, k1, k2):
    """<k1, a(t,x,u)> + <k2, b(t,x,u)> - g(t,x,u), batched over paths."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = check_admissible(scenario.control_set, u)
    k1 = np.broadcast_to(np.asarray(k1, dtype=float), x.shape)
    k2 = np.broadcast_to(np.asarray(k2, dtype=float), x.shape)
    return (
        np.sum(k1 * scenario.drift(t, x, u), axis=-1)
        + np.sum(k2 * scenario.diffusion(t, x, u), axis=-1)
        - scenario.running_cost(t, x, u)
    )


def convex_gradient(scenario, t_index, x_slice, u_slice, y_slice, Y_slice, grid):
    """Control-space direction a_u* y + b_u* Y - g_u per path at step
    ``t_index`` of ``grid``.

    Only meaningful on convex control sets, where the optimality condition
    says this vector pairs nonpositively with every u - ubar."""
    if not scenario.control_set.convex:
        raise WrongTheoremError(
            "gradient condition needs a convex control set; use spike_functional"
        )
    t = grid.times()[t_index]
    return (
        scenario.vjp("a", "u", t, x_slice, u_slice, y_slice)
        + scenario.vjp("b", "u", t, x_slice, u_slice, Y_slice)
        - scenario.grad_u_running(t, x_slice, u_slice)
    )


def _step_gradient(scenario, traj, pair, j):
    """:func:`convex_gradient` at step j along ``traj``, with y_j and Y_j
    from one read of ``pair``."""
    y_j, Y_j = pair.at(j)
    return convex_gradient(scenario, j, traj.states[:, j], traj.controls_used[:, j],
                           y_j, Y_j, grid=traj.grid)


def control_gradient(scenario, traj, pair):
    """Per-path, per-step gradient direction, shape (n_paths, n_steps, m),
    stored step-major.  The optimizer forms the same step gradients one at
    a time and keeps no such history (see :func:`_gradient_step`)."""
    grid = traj.grid
    out = step_major((traj.n_paths, grid.n_steps, scenario.control_dim))
    for j in range(grid.n_steps):
        out[:, j] = _step_gradient(scenario, traj, pair, j)
    return out


def spike_functional(scenario, t, x_slice, u_bar_slice, u, y_slice, Y_slice, P_slice):
    """Per-path S(t, u) for one alternative control point u."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(u, (x_slice.shape[0], u.size))
    h_bar = hamiltonian(scenario, t, x_slice, u_bar_slice, y_slice, Y_slice)
    h_alt = hamiltonian(scenario, t, x_slice, u, y_slice, Y_slice)
    db = scenario.diffusion(t, x_slice, u) - scenario.diffusion(t, x_slice, u_bar_slice)
    quad = np.einsum("pi,pij,pj->p", db, P_slice, db)
    return h_bar - h_alt - 0.5 * quad


@dataclass
class MPReport:
    """Sample means of S over a (time, control) grid with the pass rule
    value >= -(k_sigma * stderr + bias_budget) entrywise."""

    t_indices: np.ndarray
    u_points: np.ndarray          # (n_u, control_dim)
    values: np.ndarray            # (n_t, n_u) sample means
    stderrs: np.ndarray           # (n_t, n_u)
    bias_budget: float
    k_sigma: float = 3.0

    @property
    def tolerances(self):
        return self.k_sigma * self.stderrs + self.bias_budget

    @property
    def max_violation(self):
        return float(np.max(np.maximum(0.0, -self.values)))

    @property
    def argmax_violation(self):
        idx = np.unravel_index(np.argmin(self.values), self.values.shape)
        return int(self.t_indices[idx[0]]), self.u_points[idx[1]]

    @property
    def passed(self):
        return bool(np.all(self.values >= -self.tolerances))

    def rows(self):
        for a, t_idx in enumerate(self.t_indices):
            for b in range(len(self.u_points)):
                yield {
                    "t_index": int(t_idx),
                    "u": " ".join(f"{c:.17g}" for c in np.atleast_1d(self.u_points[b])),
                    "mean_S": self.values[a, b],
                    "stderr": self.stderrs[a, b],
                    "tolerance": self.tolerances[a, b],
                    "pass": int(self.values[a, b] >= -self.tolerances[a, b]),
                }


def second_order_data(scenario, traj, pair):
    """Adjoint-equation coefficients along a candidate trajectory:
    J = a_x, K = b_x, F = -(state Hessian of H), P_T = -h_xx(x(T)).

    When ``drift_x`` and ``diffusion_x`` each return one (n, n) matrix at
    every step, J and K are those (N, n, n) stacks, the same on every path,
    and a_xx = b_xx = 0, so F = g_xx needs no adjoint value (see
    :func:`_running_hessian`); otherwise J, K and F are full per-path
    arrays."""
    grid = traj.grid
    N, n, P = grid.n_steps, scenario.n_modes, traj.n_paths
    times = grid.times()
    P_T = -scenario.hess_terminal(traj.states[:, N])
    J = path_constant_steps(scenario.drift_x, traj, (n, n))
    K = None if J is None else path_constant_steps(scenario.diffusion_x, traj, (n, n))
    if K is not None:
        return J, K, _running_hessian(scenario, traj), P_T
    J, K, F = (step_major((P, N, n, n)) for _ in range(3))
    for j in range(N):
        xj, uj = traj.states[:, j], traj.controls_used[:, j]
        J[:, j] = scenario.jacobian("a", "x", times[j], xj, uj)
        K[:, j] = scenario.jacobian("b", "x", times[j], xj, uj)
        F[:, j] = -scenario.hamiltonian_hess_x(times[j], xj, uj, *pair.at(j))
    return J, K, F, P_T


def _running_hessian(scenario, traj):
    """g_xx along ``traj``: (N, n, n) when the Hessian callback returns one
    (n, n) matrix at every step; otherwise per path (P, N, n, n)."""
    n, times = scenario.n_modes, traj.grid.times()
    F = path_constant_steps(scenario.running_hess_x, traj, (n, n))
    if F is not None:
        return F
    F = step_major((traj.n_paths, traj.grid.n_steps, n, n))
    for j in range(traj.grid.n_steps):
        F[:, j] = scenario.hess_x_running(times[j], traj.states[:, j], traj.controls_used[:, j])
    return F


def solve_adjoints(scenario, traj, ens):
    """First- and second-order backward solves along one trajectory."""
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    return pair, sa


def check_condition(scenario, traj, pair, sa, u_grid, t_grid, bias_budget=0.0,
                    k_sigma=3.0):
    """Aggregate the spike functional over a (t, u) grid into an MPReport."""
    bias_budget = check_budget(bias_budget, "bias_budget")
    k_sigma = check_budget(k_sigma, "k_sigma")
    u_grid = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if u_grid.size == 0:
        raise DomainError("empty control grid makes the condition vacuous")
    last = traj.grid.n_steps - 1
    t_grid = np.array([check_step(j, last, "time index") for j in t_grid], dtype=int)
    if t_grid.size == 0:
        raise DomainError("empty time grid makes the condition vacuous")
    check_same_ensemble(traj, pair.ens, sa.ens)
    times = traj.grid.times()
    P = traj.n_paths
    values = np.empty((len(t_grid), len(u_grid)))
    stderrs = np.empty_like(values)
    for a, j in enumerate(t_grid):
        x_slice = traj.states[:, j]
        u_bar = traj.controls_used[:, j]
        y_slice, Y_slice = pair.at(j)
        P_slice = sa.P_paths(j)
        for b, u in enumerate(u_grid):
            s = spike_functional(
                scenario, times[j], x_slice, u_bar, u, y_slice, Y_slice, P_slice
            )
            values[a, b] = s.mean()
            stderrs[a, b] = s.std(ddof=1) / np.sqrt(P)
    return MPReport(t_grid, u_grid, values, stderrs, bias_budget, k_sigma)


# ----------------------------------------------------------------------
# projected gradient search
# ----------------------------------------------------------------------

@dataclass
class OptimizeHistory:
    iterations: list = field(default_factory=list)

    def append(self, i, cost, stderr, step_norm):
        self.iterations.append(
            {"iter": i, "J": cost, "stderr": stderr, "step_norm": step_norm}
        )

    @property
    def final_cost(self):
        return self.iterations[-1]["J"]


def _gradient_step(scenario, traj, step, values, squares, j, y_j, Y_j):
    """Step j of one projected-gradient iteration along ``traj``, as the
    consumer of the first-adjoint sweep, which hands it (y_j, Y_j): forms
    g_j = a_u* y_j + b_u* Y_j - g_u at the projected u_j that
    ``traj.controls_used`` holds, writes Pi(u_j + step g_j) into
    ``values[:, j]`` and |Pi(u_j + step g_j) - u_j|^2 into ``squares[j]``.
    ``values`` may be ``traj.controls_used`` itself: the sweep has read
    step j by then.  Only per-step slices are allocated."""
    u_j = traj.controls_used[:, j]
    new = scenario.control_set.projection(
        u_j + step * convex_gradient(scenario, j, traj.states[:, j], u_j, y_j, Y_j, traj.grid))
    change = new - u_j  # before the write: u_j may be a view of values[:, j]
    squares[j] = np.vdot(change, change)
    values[:, j] = new


def projected_gradient(scenario, x0, control, ens, step_rule=0.8, max_iters=200):
    """Iterate u <- clamp(u + step * (a_u* y + b_u* Y - g_u)) on a per-path
    open-loop control.

    The update uses the regression-fitted adjoint values, so the control at
    step j is a measurable function of that path's state there, and the
    iteration is a deterministic map for a frozen ensemble.  ``step_rule``
    is the fixed step, finite and nonnegative (0 leaves the control as it
    is).  Stops when the update norm falls under ``TOL_STEP`` or after
    ``max_iters`` iterations.
    Persistent cost increase (more than 10 stderr for 5 straight iterations)
    raises a step-rule error.  ``control`` is an ``OpenLoop`` or its values,
    (n_steps, m) or (n_paths, n_steps, m); a ``Feedback`` is rejected, since
    the search runs over open-loop values.

    The search owns one step-major (n_paths, n_steps, m) iterate: the first
    trajectory's projected per-path values, or one new buffer when the
    start is a shared block (which is not expanded per path).  Each
    iteration simulates it as it is, and :func:`_gradient_step`, the
    first-adjoint sweep's consumer, overwrites it step by step with the
    projected update, so an iteration holds the states and one per-path
    control, and no gradient history.  The caller's values are not
    written.
    """
    if not scenario.control_set.convex:
        raise WrongTheoremError("projected gradient needs a convex control set")
    max_iters = check_integer(max_iters, 0,
                              f"max_iters must be a nonnegative integer (got {max_iters!r})")
    if not (np.isfinite(step_rule) and step_rule >= 0):
        raise DomainError(f"step_rule must be finite and nonnegative (got {step_rule!r})")
    if isinstance(control, Feedback):
        raise DomainError(
            "projected gradient needs open-loop control values, not a Feedback"
        )
    u = control if isinstance(control, OpenLoop) else OpenLoop(control)
    grid = ens.grid
    squares = np.empty(grid.n_steps)

    history = OptimizeHistory()
    best = np.inf
    bad_streak = 0
    for i in range(max_iters + 1):
        traj = simulate_controlled(scenario, x0, u, ens)
        costs = cost_paths(scenario, traj)
        if i == 0:
            values = traj.controls_used
            if values.strides[0] == 0:  # a shared block: the iterate is new
                values = step_major(values.shape)
            u = _Projected(values)
        solve_first_adjoint(scenario, traj, ens, consume=partial(
            _gradient_step, scenario, traj, step_rule, values, squares))
        del traj
        total = 0.0
        for square in squares:  # in step order
            total += float(square)
        step_norm = float(np.sqrt(total / ens.n_paths * grid.dt))
        cost, stderr = float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs)))
        history.append(i, cost, stderr, step_norm)
        if cost > best + 10 * max(stderr, 1e-300):
            bad_streak += 1
            if bad_streak >= 5:
                raise StepRuleError(
                    f"cost increased for {bad_streak} consecutive iterations"
                )
        else:
            bad_streak = 0
        best = min(best, cost)
        if step_norm < TOL_STEP:
            break
    return OpenLoop(values), history


# ----------------------------------------------------------------------
# spike experiment
# ----------------------------------------------------------------------

@dataclass
class SpikeTable:
    rows: list


def spike_window(tau, eps_list, grid):
    """Start step round((tau - t0) / dt) and widths round(eps / dt) of the
    spike windows [tau, tau + eps) on ``grid``.  Raises DomainError unless
    the epsilons are positive and strictly decreasing, every window lies in
    the horizon and the widths are distinct and nonzero (a window of 0 steps
    makes a vacuous row, two equal ones the same spike)."""
    eps_list = [float(e) for e in eps_list]
    # each epsilon exceeds the next, the last exceeds 0; a NaN fails both
    if not eps_list or not all(a > b for a, b in zip(eps_list, eps_list[1:] + [0.0])):
        raise DomainError(f"eps values must be positive and strictly decreasing "
                          f"(got {','.join(map(str, eps_list))})")
    if not tau >= grid.t0 - 1e-12:
        raise DomainError(f"spike time {tau} is NaN or before the grid start {grid.t0}")
    if tau + eps_list[0] > grid.T + 1e-12:
        raise DomainError(f"the spike window from {tau} over {eps_list[0]} leaves the horizon "
                          f"T = {grid.T}")
    dt = grid.dt
    widths = [int(round(eps / dt)) for eps in eps_list]
    for k, (eps, width) in enumerate(zip(eps_list, widths)):
        if width == 0:
            raise DomainError(f"epsilon {eps} rounds to a spike of 0 steps at dt = {dt}")
        if k and width == widths[k - 1]:
            raise DomainError(f"epsilons {eps_list[k - 1]} and {eps} round to the same spike "
                              f"of {width} steps at dt = {dt}")
    return int(round((tau - grid.t0) / dt)), widths


def spike_experiment(scenario, x0, u_bar, u_alt, tau, eps_list, ens, adjoints=None):
    """Cost response to spiking the control to ``u_alt`` on [tau, tau+eps).

    All rows share the base trajectory and the noise ensemble (common random
    numbers), so delta_J comes from pathwise differencing.  The prediction
    integrates the sample mean of S over the spike window using the adjoint
    data of the base trajectory: the windows are nested, so one
    :func:`check_condition` over the widest gives every step's mean, and a
    row sums its own prefix in step order.  Checks ``u_alt`` and the
    windows first; ``adjoints`` from another ensemble raise
    EnsembleMismatchError."""
    grid = ens.grid
    j_tau, widths = spike_window(tau, eps_list, grid)
    u_alt = np.asarray(u_alt, dtype=float)
    check_admissible(scenario.control_set, u_alt)
    eps_list = [float(e) for e in eps_list]

    base_traj = simulate_controlled(scenario, x0, u_bar, ens)
    base_costs = cost_paths(scenario, base_traj)
    pair, sa = adjoints or solve_adjoints(scenario, base_traj, ens)
    means = check_condition(scenario, base_traj, pair, sa, u_alt,
                            np.arange(j_tau, j_tau + widths[0])).values[:, 0]
    predicted_at = np.cumsum(grid.dt * means)  # sequential: each prefix in step order

    base_u = base_traj.controls_used
    shared = base_u.strides[0] == 0
    rows = []
    for eps, width in zip(eps_list, widths):
        j_hi = j_tau + width
        # a path-shared base control is spiked as its (N, m) block, so the
        # perturbed run records a broadcast too; per-path values step-major
        if shared:
            spiked = base_u[0].copy()
        else:
            spiked = step_major(base_u.shape)
            spiked[...] = base_u
        spiked[..., j_tau:j_hi, :] = u_alt
        pert_costs = cost_paths(scenario, simulate_controlled(scenario, x0, OpenLoop(spiked), ens))
        diff = pert_costs - base_costs
        delta = float(diff.mean())
        stderr = float(diff.std(ddof=1) / np.sqrt(len(diff)))
        predicted = float(predicted_at[width - 1])
        remainder = delta - predicted
        rows.append(
            {
                "epsilon": eps,
                "tau": tau,
                "J_perturbed": float(pert_costs.mean()),
                "J_base": float(base_costs.mean()),
                "delta_J": delta,
                "stderr": stderr,
                "predicted": predicted,
                "remainder": remainder,
                "remainder_over_eps": remainder / eps,
            }
        )
    return SpikeTable(rows)
