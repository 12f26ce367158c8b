import dataclasses

import numpy as np
import pytest

import smpkit.maximum_principle as mp
from smpkit.adjoint import solve_first_adjoint
from smpkit.errors import DimensionError, DomainError, EnsembleMismatchError, WrongTheoremError
from smpkit.forward import (
    Box,
    Feedback,
    FiniteGrid,
    OpenLoop,
    TimeGrid,
    cost_paths,
    sample_brownian,
    simulate_controlled,
    step_major,
)
from smpkit.maximum_principle import (
    check_admissible,
    check_condition,
    control_gradient,
    convex_gradient,
    hamiltonian,
    projected_gradient,
    second_order_data,
    solve_adjoints,
    spike_experiment,
    spike_functional,
)
from smpkit.scenarios import (build_preset, load_preset, make_heat_scenario, make_lq_scalar,
                              riccati_oracle)

from helpers import per_path_jacobians, traced_peak
from optimizer_reference import whole_history_gradient_step


def test_hamiltonian_values():
    scenario, _ = make_lq_scalar(sigma=0.0)
    # a = u, b = 0, g = (x^2+u^2)/2: H(x=1, u=0, k1=2, k2=0) = -0.5
    val = hamiltonian(scenario, 0.0, np.array([[1.0]]), np.array([[0.0]]),
                      np.array([2.0]), np.array([0.0]))
    assert val[0] == pytest.approx(-0.5, rel=1e-14)


def test_hamiltonian_zero_everything():
    scenario, _ = make_lq_scalar(sigma=0.0)
    scenario.running_cost = lambda t, x, u: np.zeros(x.shape[0])
    scenario.drift = lambda t, x, u: np.zeros_like(x)
    scenario.diffusion = lambda t, x, u: np.zeros_like(x)
    val = hamiltonian(scenario, 0.0, np.array([[1.0]]), np.array([[0.5]]),
                      np.array([3.0]), np.array([-1.0]))
    assert val[0] == 0.0


def test_hamiltonian_affine_in_k1():
    scenario, _ = make_lq_scalar()
    x = np.array([[0.7]])
    u = np.array([[0.4]])
    k2 = np.array([0.3])
    base = hamiltonian(scenario, 0.0, x, u, np.array([1.0]), k2)
    double = hamiltonian(scenario, 0.0, x, u, np.array([2.0]), k2)
    drift_pair = np.sum(scenario.drift(0.0, x, u) * 1.0, axis=-1)
    assert double[0] == pytest.approx(base[0] + drift_pair[0], rel=1e-14)


def test_hamiltonian_rejects_out_of_set_control():
    scenario, _ = make_lq_scalar(control_bound=1.0)
    with pytest.raises(DomainError):
        hamiltonian(scenario, 0.0, np.array([[0.0]]), np.array([[5.0]]),
                    np.array([0.0]), np.array([0.0]))


def test_convex_gradient_cancellation_and_wrong_theorem():
    scenario, _ = make_lq_scalar()
    # g_u = u; pick u = y so a_u* y - g_u = 0 (b_u = 0)
    y = np.array([[0.3], [-0.8]])
    x = np.zeros((2, 1))
    grid = TimeGrid(0.0, 1.0, 10)
    grad = convex_gradient(scenario, 0, x, y.copy(), y, np.zeros((2, 1)), grid)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    nonconvex = make_lq_scalar()[0]
    nonconvex.control_set = FiniteGrid(points=[[-1.0], [1.0]])
    with pytest.raises(WrongTheoremError):
        convex_gradient(nonconvex, 0, x, y, y, np.zeros((2, 1)), grid)


def test_convex_gradient_requires_grid():
    # the callbacks take a time; a bare step index must not stand in for it
    scenario, _ = make_lq_scalar()
    y = np.array([[0.3], [-0.8]])
    with pytest.raises(TypeError):
        convex_gradient(scenario, 3, np.zeros((2, 1)), y, y, np.zeros((2, 1)))


from helpers import lq_optimizer_run, lq_optimum_bundle, per_path_jacobians


@pytest.fixture(scope="module")
def lq_at_optimum():
    return lq_optimum_bundle()


def test_convex_gradient_small_at_optimum(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    for j in (0, 60, 140):
        grad = convex_gradient(
            scenario, j, traj.states[:, j], traj.controls_used[:, j],
            *pair.at(j), grid=grid,
        )
        scale = np.sqrt(np.mean(traj.controls_used[:, j] ** 2))
        assert np.sqrt(np.mean(grad**2)) <= 0.05 * max(scale, 0.1)


def test_convex_gradient_improvement_direction_when_suboptimal():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    ens = sample_brownian(grid, 20_000, 31)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((200, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    oracle = riccati_oracle(riccati_params := make_lq_scalar()[1], grid)
    # pairing of the gradient with (u* - 0) integrated over time: strictly
    # positive means moving toward u* improves
    total = np.zeros(traj.n_paths)
    for j in range(grid.n_steps):
        grad = convex_gradient(
            scenario, j, traj.states[:, j], traj.controls_used[:, j],
            *pair.at(j), grid=grid,
        )
        u_star = -traj.states[:, j]  # Riccati feedback -p x with p = 1
        total += grid.dt * np.sum(grad * (u_star - traj.controls_used[:, j]), axis=-1)
    stderr = total.std(ddof=1) / np.sqrt(len(total))
    assert total.mean() > 3 * stderr


def test_spike_functional_zero_at_candidate(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    j = 77
    s = spike_functional(
        scenario, grid.times()[j], traj.states[:, j], traj.controls_used[:, j],
        traj.controls_used[:, j], *pair.at(j), sa.P_paths(j),
    )
    np.testing.assert_array_equal(s, 0.0)


def test_spike_functional_reduces_to_hamiltonian_gap_when_b_control_free():
    # diffusion independent of u: the quadratic term drops exactly
    scenario, _ = make_lq_scalar()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 1))
    u_bar = rng.uniform(-1, 1, (50, 1))
    u = np.array([0.4])
    y = rng.standard_normal((50, 1))
    Y = rng.standard_normal((50, 1))
    P = rng.standard_normal((50, 1, 1))
    s = spike_functional(scenario, 0.3, x, u_bar, u, y, Y, P)
    gap = hamiltonian(scenario, 0.3, x, u_bar, y, Y) - hamiltonian(
        scenario, 0.3, x, np.broadcast_to(u, (50, 1)), y, Y
    )
    np.testing.assert_allclose(s, gap, atol=1e-12)


def test_spike_functional_scaling_leaves_argmax(lq_at_optimum):
    # scaling the cost data scales the adjoints with it (linearity), and then
    # every S(t, u) scales by the same factor: the argmax over u is invariant
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    alpha = 2.0
    scaled_scenario, _ = make_lq_scalar()
    base_run = scenario.running_cost
    base_term = scenario.terminal_cost
    scaled_scenario.running_cost = lambda t, x, u: alpha * base_run(t, x, u)
    scaled_scenario.terminal_cost = lambda x: alpha * base_term(x)
    scaled_scenario.running_grad_u = lambda t, x, u: alpha * u
    j = 50
    u_grid = np.linspace(-2, 2, 21)[:, None]

    y_j, Y_j = pair.at(j)

    def s_values(scen, scale):
        return np.array([
            spike_functional(
                scen, grid.times()[j], traj.states[:, j], traj.controls_used[:, j],
                u, scale * y_j, scale * Y_j, scale * sa.P_paths(j),
            ).mean()
            for u in u_grid
        ])

    base = s_values(scenario, 1.0)
    scaled = s_values(scaled_scenario, alpha)
    assert np.argmax(base) == np.argmax(scaled)
    np.testing.assert_allclose(scaled, alpha * base, rtol=1e-12)


def test_check_condition_at_optimum(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    u_grid = np.linspace(-2.0, 2.0, 21)[:, None]
    t_grid = np.linspace(0, grid.n_steps - 1, 8, dtype=int)
    report = check_condition(
        scenario, traj, pair, sa, u_grid, t_grid,
        bias_budget=scenario.c_bias_second * grid.dt,
    )
    assert report.passed, f"violation {report.max_violation} at {report.argmax_violation}"


def test_check_condition_flags_perturbed_control(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    perturbed = np.array(traj.controls_used, copy=True)
    perturbed[:, : grid.n_steps // 4] += 0.5
    traj_p = simulate_controlled(scenario, scenario.x0, OpenLoop(perturbed), ens)
    pair_p, sa_p = solve_adjoints(scenario, traj_p, ens)
    u_grid = np.linspace(-2.0, 2.0, 21)[:, None]
    t_grid = np.linspace(0, grid.n_steps - 1, 8, dtype=int)
    report = check_condition(
        scenario, traj_p, pair_p, sa_p, u_grid, t_grid,
        bias_budget=scenario.c_bias_second * grid.dt,
    )
    assert not report.passed
    t_flag, _ = report.argmax_violation
    assert t_flag <= grid.n_steps // 4


def test_check_condition_on_finite_control_set():
    # nonconvex control set: conditions are checked by enumerating the grid
    scenario, _ = make_lq_scalar()
    scenario.control_set = FiniteGrid(points=[[-1.0], [0.0], [1.0]])
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 4000, 59)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((100, 1))), ens)
    pair, sa = solve_adjoints(scenario, traj, ens)
    u_grid = scenario.control_set.sample_grid()
    t_grid = np.linspace(0, grid.n_steps - 1, 8, dtype=int)
    report = check_condition(scenario, traj, pair, sa, u_grid, t_grid,
                             bias_budget=scenario.c_bias_second * grid.dt)
    # holding u = 0 from x0 = 1 is not optimal: switching to u = -1 early
    # improves, so the condition must flag a violation there
    assert not report.passed
    t_flag, u_flag = report.argmax_violation
    assert u_flag[0] == -1.0


def test_check_condition_empty_grid_errors(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    with pytest.raises(DomainError):
        check_condition(scenario, traj, pair, sa, np.zeros((0, 1)), [0])
    with pytest.raises(DomainError):
        check_condition(scenario, traj, pair, sa, np.zeros((3, 1)), [])
    for t_grid in ([grid.n_steps], [-1]):
        with pytest.raises(DomainError, match=f"0..{grid.n_steps - 1}"):
            check_condition(scenario, traj, pair, sa, np.zeros((3, 1)), t_grid)
    # a fractional index is not truncated to a step
    with pytest.raises(DomainError, match="time index 2.5 is not an integer step"):
        check_condition(scenario, traj, pair, sa, np.zeros((3, 1)), [0, 2.5])


def test_second_order_data_deterministic_for_preset(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    assert J.shape == (grid.n_steps, 1, 1) and np.all(J == 0.0)
    assert np.all(K == 0.0)
    np.testing.assert_allclose(F, 1.0, atol=1e-12)  # -H_xx = g_xx = 1
    np.testing.assert_allclose(P_T, -1.0, atol=1e-12)


def test_second_order_data_reads_per_path_jacobians_on_each_path():
    # a = u - x^3/3 and b = sigma + x^2/20: a_x = -x^2 and b_x = x/10 differ
    # by path, and J and K must be the callbacks' values on every path, not
    # path 0's
    scenario, _ = make_lq_scalar()
    scenario = dataclasses.replace(
        scenario,
        drift=lambda t, x, u: u - x**3 / 3.0,
        diffusion=lambda t, x, u: 0.3 + x**2 / 20.0,
        drift_x=lambda t, x, u: -(x**2)[:, :, None],
        diffusion_x=lambda t, x, u: (x / 10.0)[:, :, None],
        drift_xx=lambda t, x, u: (-2.0 * x)[:, :, None, None],
        diffusion_xx=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), 0.1),
    )
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 500, 3)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((20, 1))), ens)
    J, K, F, P_T = second_order_data(scenario, traj, solve_first_adjoint(scenario, traj, ens))
    x = traj.states[:, :-1, 0]
    assert J.shape == K.shape == F.shape == (500, 20, 1, 1)
    np.testing.assert_array_equal(J[:, :, 0, 0], -(x**2))
    np.testing.assert_array_equal(K[:, :, 0, 0], x / 10.0)
    assert np.ptp(J[:, 10]) > 0.1


def test_second_order_data_keeps_a_path_dependent_cost_hessian():
    # path-constant Jacobians say nothing about g: with g = x^4/4 + u^2/2
    # the state Hessian 3x^2 differs by path, and F must be per path as with
    # per-path Jacobians, not path 0's value on every path
    scenario, _ = make_lq_scalar()
    scenario = dataclasses.replace(
        scenario,
        running_cost=lambda t, x, u: 0.25 * np.sum(x**4, axis=-1) + 0.5 * np.sum(u * u, axis=-1),
        running_grad_x=lambda t, x, u: x**3,
        running_hess_x=lambda t, x, u: 3.0 * x[:, :, None] ** 2,
    )
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 2000, 1)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((50, 1))), ens)
    J, K, F, P_T = second_order_data(scenario, traj, solve_first_adjoint(scenario, traj, ens))
    assert J.shape == (50, 1, 1) and K.shape == (50, 1, 1)
    per_path = per_path_jacobians(scenario)
    J_ref, _, F_ref, _ = second_order_data(per_path, traj,
                                           solve_first_adjoint(per_path, traj, ens))
    assert J_ref.ndim == 4
    assert F.shape == F_ref.shape == (2000, 50, 1, 1)
    np.testing.assert_allclose(F, F_ref, rtol=1e-12, atol=0)
    assert np.ptp(F[:, 25]) > 1.0


@pytest.mark.parametrize("name, per_path", [
    ("drift_x", False), ("drift_u", False), ("diffusion_x", False), ("diffusion_u", False),
    ("running_grad_x", False), ("running_grad_u", False), ("terminal_grad", False),
    ("running_hess_x", False), ("terminal_hess", False),
    ("drift_xx", True), ("diffusion_xx", True),
])
def test_a_missing_derivative_callback_is_named(name, per_path):
    # derivatives come from the scenario only: the solver that needs a
    # missing callback raises a DomainError naming it.  A second derivative
    # may be left out only where its first derivative is one matrix, so the
    # per-path Jacobians need drift_xx and diffusion_xx
    scenario, _ = make_heat_scenario()
    if per_path:
        scenario = per_path_jacobians(scenario)
    scenario = dataclasses.replace(scenario, **{name: None})
    grid = TimeGrid(0.0, 1.0, 6)
    ens = sample_brownian(grid, 200, 4)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((6, 2))), ens)
    with pytest.raises(DomainError, match=f"the scenario has no {name} callback"):
        pair, _ = solve_adjoints(scenario, traj, ens)
        control_gradient(scenario, traj, pair)


def test_second_adjoint_matches_scalar_closed_form(lq_at_optimum):
    # P' = F with A = J = K = 0: P(t) = -1 - (T - t), Q = 0
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    times = grid.times()
    for j in (0, 100, 199):
        expected = -1.0 - (grid.T - times[j])
        assert sa.P_mean(j)[0, 0] == pytest.approx(expected, abs=5e-3)


# ----------------------------------------------------------------------
# projected gradient
# ----------------------------------------------------------------------

def test_projected_gradient_zero_step_is_identity():
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 2000, 37)
    control = OpenLoop(np.full((50, 1), 0.3))
    final, history = projected_gradient(scenario, scenario.x0, control, ens,
                                        step_rule=0.0, max_iters=3)
    costs = [row["J"] for row in history.iterations]
    assert all(c == costs[0] for c in costs)
    np.testing.assert_allclose(final.values, 0.3, atol=1e-15)


def test_projected_gradient_rejects_feedback():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 200, 37)
    feedback = riccati_oracle(params, grid).feedback()
    assert isinstance(feedback, Feedback)
    with pytest.raises(DomainError, match="open-loop"):
        projected_gradient(scenario, scenario.x0, feedback, ens, max_iters=1)


def test_projected_gradient_rejects_negative_max_iters():
    # no iteration would run, and the history would have no final cost
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 200, 37)
    with pytest.raises(DomainError, match="max_iters"):
        projected_gradient(scenario, scenario.x0, OpenLoop(np.zeros((20, 1))), ens, max_iters=-1)


def test_projected_gradient_fixed_point_at_optimum():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 5000, 41)
    oracle = riccati_oracle(params, grid)
    traj = simulate_controlled(scenario, scenario.x0, oracle.feedback(), ens)
    init = OpenLoop(np.array(traj.controls_used, copy=True))
    final, history = projected_gradient(scenario, scenario.x0, init, ens,
                                        step_rule=0.8, max_iters=20)
    # only regression-noise-sized correction steps
    assert history.iterations[0]["step_norm"] < 0.05
    effective = [r for r in history.iterations if r["step_norm"] >= 0.05]
    assert len(effective) <= 1


def _box_limited(case):
    """A scenario whose box the test controls reach, so the projection acts."""
    if case == "lq_scalar":
        return make_lq_scalar(control_bound=0.5)[0]
    scenario, _ = build_preset(load_preset("heat4"))
    return per_path_jacobians(dataclasses.replace(scenario, control_set=Box([-0.3] * 2, [0.3] * 2)))


def _per_path_values(ens, m, seed):
    u = step_major((ens.n_paths, ens.grid.n_steps, m))
    u[...] = np.random.default_rng(seed).uniform(-0.4, 0.4, u.shape)
    return u


@pytest.mark.parametrize("case", ["lq_scalar", "heat4-per-path"])
def test_gradient_step_matches_whole_history_reference(case):
    # lq_scalar's Jacobian callbacks return one matrix (the folded y);
    # heat4 with batched callbacks takes the per-path branch of the read.
    # One iteration (max_iters=0) runs _gradient_step inside the sweep
    scenario = _box_limited(case)
    grid = TimeGrid(0.0, scenario.T, 40)
    ens = sample_brownian(grid, 1000, 59)
    u = _per_path_values(ens, scenario.control_dim, 7)
    # a long step overshoots, so the projection acts
    final, history = projected_gradient(scenario, scenario.x0, OpenLoop(u), ens, step_rule=3.0,
                                        max_iters=0)
    (row,) = history.iterations
    new_u, cost, stderr, step_norm = final.values, row["J"], row["stderr"], row["step_norm"]
    ref_u, ref_cost, ref_stderr, ref_norm = whole_history_gradient_step(
        scenario, scenario.x0, u, ens, 3.0)
    box = scenario.control_set
    assert np.any((ref_u == box.lo) | (ref_u == box.hi))
    assert np.max(np.abs(new_u - ref_u)) <= 1e-13 * np.max(np.abs(ref_u))
    assert (cost, stderr) == (ref_cost, ref_stderr)
    assert step_norm == pytest.approx(ref_norm, rel=1e-13, abs=0)


def test_gradient_step_allocates_no_control_history():
    # given step j's adjoint values, the step writes the projected update
    # into the iterate in place, which may be the trajectory's own controls,
    # and allocates per-step slices only: no (n_paths, n_steps, m) array
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 2000, 61)
    u = _per_path_values(ens, scenario.control_dim, 8)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(u), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    reads = [pair.at(j) for j in range(grid.n_steps)]  # before the controls are overwritten
    values, squares = traj.controls_used, np.empty(grid.n_steps)
    expected = scenario.control_set.projection(u + 0.8 * control_gradient(scenario, traj, pair))

    def sweep_order():
        for j in range(grid.n_steps - 1, -1, -1):
            mp._gradient_step(scenario, traj, 0.8, values, squares, j, *reads[j])

    peak, _ = traced_peak(sweep_order)
    history = u.nbytes
    slices = 16 * ens.n_paths * 8  # sixteen (n_paths,) columns of one step
    assert peak <= slices < history, (peak, history, slices)
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_allclose(squares, np.sum((expected - u) ** 2, axis=(0, 2)), rtol=1e-12)


@pytest.mark.parametrize("shape", ["shared", "per-path"])
def test_projected_gradient_iteration_holds_one_per_path_control(shape):
    # the trajectory records the search's own projected iterate, and the
    # sweep's consumer overwrites it in place, so beside the states an
    # iteration holds one (n_paths, n_steps, m) control; a shared initial
    # block is not expanded per path
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    ens = sample_brownian(grid, 1000, 67)
    m = scenario.control_dim
    init = np.full((200, m) if shape == "shared" else (1000, 200, m), 0.1)
    peak, _ = traced_peak(projected_gradient, scenario, scenario.x0, OpenLoop(init), ens,
                          max_iters=1)
    states = ens.n_paths * (grid.n_steps + 1) * scenario.n_modes * 8
    control = ens.n_paths * grid.n_steps * m * 8
    slack = 64 * ens.n_paths * 8  # per-step columns and the adjoint's coefficients
    assert peak <= states + control + slack, (peak, states, control, slack)


@pytest.mark.parametrize("as_open_loop", [True, False])
def test_projected_gradient_leaves_the_callers_values_unwritten(as_open_loop):
    # the search overwrites its own iterate, never the start it was given
    scenario = _box_limited("lq_scalar")
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 300, 73)
    init = _per_path_values(ens, scenario.control_dim, 9)
    before = init.copy()
    final, _ = projected_gradient(scenario, scenario.x0,
                                  OpenLoop(init) if as_open_loop else init, ens,
                                  step_rule=3.0, max_iters=3)
    assert init.tobytes() == before.tobytes()
    assert not np.shares_memory(final.values, init)
    assert not np.array_equal(final.values, init)


def test_shared_control_matches_its_per_path_copy_bit_for_bit():
    # heat4, where the control enters drift and diffusion: a shared block and
    # its per-path copy give the same bits everywhere downstream
    scenario, _ = build_preset(load_preset("heat4"))
    N, P = 30, 600
    grid = TimeGrid(0.0, scenario.T, N)
    ens = sample_brownian(grid, P, 71)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, (N, scenario.control_dim))
    copy = step_major((P, N, scenario.control_dim))
    copy[...] = values
    runs = []
    for control in (OpenLoop(values), OpenLoop(copy)):
        traj = simulate_controlled(scenario, scenario.x0, control, ens)
        pair, sa = solve_adjoints(scenario, traj, ens)
        report = check_condition(scenario, traj, pair, sa, [[0.5, -0.5], [0.0, 0.2]], [0, 9, 29])
        table = spike_experiment(scenario, scenario.x0, control, np.array([0.5, -0.5]),
                                 tau=grid.dt * 10, eps_list=[grid.dt * 4, grid.dt * 2], ens=ens,
                                 adjoints=(pair, sa))
        runs.append((traj, pair, sa, report, table))
    (traj, pair, sa, report, table), (traj_c, pair_c, sa_c, report_c, table_c) = runs
    assert traj.controls_used.strides[0] == 0 and traj_c.controls_used.strides[0] != 0
    np.testing.assert_array_equal(traj.states, traj_c.states)
    np.testing.assert_array_equal(cost_paths(scenario, traj), cost_paths(scenario, traj_c))
    for j in range(N):
        for a, b in zip(pair.at(j, with_driver=True) + sa.at(j),
                        pair_c.at(j, with_driver=True) + sa_c.at(j)):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(pair.y_T, pair_c.y_T)
    np.testing.assert_array_equal(sa.P_paths(N), sa_c.P_paths(N))
    np.testing.assert_array_equal(report.values, report_c.values)
    np.testing.assert_array_equal(report.stderrs, report_c.stderrs)
    assert table.rows == table_c.rows


def test_projected_gradient_reaches_oracle_value():
    history, target = lq_optimizer_run()
    assert abs(history.final_cost - target) / target < 0.02
    assert len(history.iterations) <= 200
    costs = np.array([row["J"] for row in history.iterations])
    noise = 10 * max(row["stderr"] for row in history.iterations)
    assert np.all(np.diff(costs) <= noise)  # non-increasing up to MC noise


# ----------------------------------------------------------------------
# spike experiment
# ----------------------------------------------------------------------

def test_spike_same_control_rows_are_zero(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    # spiking to the control the paths already use changes nothing... but the
    # base control here is feedback; use an open-loop zero base instead
    scen, _ = make_lq_scalar()
    g = TimeGrid(0.0, 1.0, 100)
    e = sample_brownian(g, 2000, 47)
    base = OpenLoop(np.full((100, 1), 0.2))
    table = spike_experiment(scen, scen.x0, base, np.array([0.2]), tau=0.3,
                             eps_list=[0.2, 0.1], ens=e)
    for row in table.rows:
        assert row["delta_J"] == 0.0
        assert row["predicted"] == 0.0
        assert row["remainder"] == 0.0


def test_spike_epsilon_validation(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    scen, _ = make_lq_scalar()
    g = TimeGrid(0.0, 1.0, 20)
    e = sample_brownian(g, 300, 3)
    base = OpenLoop(np.zeros((20, 1)))
    with pytest.raises(DomainError):
        spike_experiment(scen, scen.x0, base, np.array([0.5]), 0.3, [0.1, 0.2], e)
    with pytest.raises(DomainError):
        spike_experiment(scen, scen.x0, base, np.array([0.5]), 0.9, [0.3, 0.1], e)
    # at dt = 0.05, 0.01 rounds to an empty window and 0.09 to the width of 0.1
    for eps_list in ([0.2, 0.01], [0.1, 0.09]):
        with pytest.raises(DomainError, match="rounds? to"):
            spike_experiment(scen, scen.x0, base, np.array([0.5]), 0.3, eps_list, e)


def test_spike_before_the_grid_start_is_a_domain_error(monkeypatch):
    # rejected before anything is simulated
    scen, _ = make_lq_scalar()
    e = sample_brownian(TimeGrid(0.0, 1.0, 20), 300, 3)
    monkeypatch.setattr(mp, "simulate_controlled", lambda *args: pytest.fail("simulated"))
    with pytest.raises(DomainError, match="before the grid start"):
        spike_experiment(scen, scen.x0, OpenLoop(np.zeros((20, 1))), np.array([0.5]), -0.05,
                         [0.1], e)


@pytest.mark.parametrize("preset, u_alt", [("lq_scalar", [10.0]), ("lq_scalar", [np.nan]),
                                           ("heat4", [7.0, 7.0]), ("heat4", [0.5, -6.5])])
def test_spike_to_a_point_outside_the_control_set_is_a_domain_error(monkeypatch, preset, u_alt):
    # both presets' control set is the box [-6, 6]^m; rejected with the
    # hamiltonian's message before anything is simulated
    scen, _ = build_preset(load_preset(preset))
    e = sample_brownian(TimeGrid(0.0, 1.0, 20), 300, 3)
    monkeypatch.setattr(mp, "simulate_controlled", lambda *args: pytest.fail("simulated"))
    with pytest.raises(DomainError, match="control point outside the admissible set"):
        spike_experiment(scen, scen.x0, OpenLoop(np.zeros((20, scen.control_dim))),
                         np.array(u_alt), 0.3, [0.2, 0.1], e)


@pytest.mark.parametrize("point", [[0.3], [0.1, 0.2, 0.3]])
def test_a_control_point_of_another_length_is_a_dimension_error(monkeypatch, point):
    # heat4's box is 2-dimensional: a 1-entry point broadcast against it, so
    # the spike ran and ended in a numpy error from the drift, and a 3-entry
    # one in a numpy broadcast error
    scen, _ = build_preset(load_preset("heat4"))
    with pytest.raises(DimensionError, match=f"has {len(point)} entries"):
        check_admissible(scen.control_set, point)
    e = sample_brownian(TimeGrid(0.0, 1.0, 20), 300, 3)
    monkeypatch.setattr(mp, "simulate_controlled", lambda *args: pytest.fail("simulated"))
    u_alt = point[0] if len(point) == 1 else np.array(point)
    with pytest.raises(DimensionError, match=f"has {len(point)} entries"):
        spike_experiment(scen, scen.x0, OpenLoop(np.zeros((20, 2))), u_alt, 0.3, [0.2, 0.1], e)


def test_spike_with_adjoints_of_another_ensemble_is_a_mismatch():
    # the prediction would pair this ensemble's paths with another one's adjoints
    scen, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 20)
    base = OpenLoop(np.zeros((20, 1)))
    ens, other = (sample_brownian(grid, 300, seed) for seed in (3, 4))
    adjoints = solve_adjoints(scen, simulate_controlled(scen, scen.x0, base, other), other)
    with pytest.raises(EnsembleMismatchError):
        spike_experiment(scen, scen.x0, base, np.array([0.5]), 0.3, [0.2, 0.1], ens,
                         adjoints=adjoints)


@pytest.mark.parametrize("preset", ["lq_scalar", "heat4"])
def test_spike_prediction_sums_each_window_in_step_order(preset):
    # each row's prediction is, bit for bit, the step-order sum over its own
    # window of dt times the sample mean of S
    scen, _ = build_preset(load_preset(preset))
    grid = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(grid, 400, 11)
    base = OpenLoop(np.full((40, scen.control_dim), 0.1))
    u_alt = np.full(scen.control_dim, 0.3)
    traj = simulate_controlled(scen, scen.x0, base, ens)
    pair, sa = solve_adjoints(scen, traj, ens)
    table = spike_experiment(scen, scen.x0, base, u_alt, 0.3, [0.2, 0.1, 0.05], ens,
                             adjoints=(pair, sa))
    times = grid.times()
    for row, width in zip(table.rows, (8, 4, 2)):
        predicted = 0.0
        for j in range(12, 12 + width):
            s = spike_functional(scen, times[j], traj.states[:, j], traj.controls_used[:, j],
                                 u_alt, *pair.at(j), sa.P_paths(j))
            predicted += grid.dt * float(s.mean())
        assert row["predicted"] == predicted


def test_spike_of_a_shared_control_holds_no_per_path_control():
    # a path-shared base control is spiked as its (N, m) block and each
    # perturbed run is dropped once costed: beside the base and one perturbed
    # state history the run holds no (n_paths, n_steps, m) control
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, scenario.T, 100)
    ens = sample_brownian(grid, 2000, 73)
    m = scenario.control_dim
    base = OpenLoop(np.zeros((100, m)))
    adjoints = solve_adjoints(scenario, simulate_controlled(scenario, scenario.x0, base, ens), ens)
    peak, _ = traced_peak(spike_experiment, scenario, scenario.x0, base, np.full(m, 0.5),
                          tau=grid.dt * 10, eps_list=[grid.dt * 4, grid.dt * 2], ens=ens,
                          adjoints=adjoints)
    states = ens.n_paths * (grid.n_steps + 1) * scenario.n_modes * 8
    slack = 64 * ens.n_paths * 8  # per-step columns and P_j
    assert peak <= 2 * states + slack, (peak, states, slack)


def test_spike_remainder_vanishes_at_optimum(lq_at_optimum):
    scenario, params, grid, ens, oracle, traj, pair, sa = lq_at_optimum
    table = spike_experiment(
        scenario, scenario.x0, oracle.feedback(), np.array([0.5]),
        tau=1.0 / 3.0 + grid.dt / 2, eps_list=[0.2, 0.1, 0.05, 0.025], ens=ens,
        adjoints=(pair, sa),
    )
    ratios = [abs(row["remainder_over_eps"]) for row in table.rows]
    # o(eps): decreasing down the ladder with at most one noise inversion
    inversions = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    assert inversions <= 1
    # spiking away from the optimum cannot reduce the cost beyond noise
    for row in table.rows:
        assert row["delta_J"] > -3 * row["stderr"]


def test_spike_improvement_exists_for_suboptimal_control():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    ens = sample_brownian(grid, 20_000, 53)
    base = OpenLoop(np.zeros((200, 1)))
    # from u = 0 with positive state, pushing u negative reduces the cost
    table = spike_experiment(scenario, scenario.x0, base, np.array([-1.0]),
                             tau=0.25, eps_list=[0.2], ens=ens)
    row = table.rows[0]
    assert row["delta_J"] < -3 * row["stderr"]
