import re

import numpy as np
import pytest

from smpkit.errors import DimensionError, DomainError, SimulationDivergedError
from smpkit.forward import (
    SAMPLE_BLOCK,
    Box,
    Feedback,
    FiniteGrid,
    OpenLoop,
    Scenario,
    TimeGrid,
    child_states,
    cost_paths,
    iter_linearized,
    sample_brownian,
    simulate_controlled,
)
from smpkit.maximum_principle import projected_gradient
from smpkit.scenarios import make_heat_scenario, make_lq_scalar
from smpkit.spectral import OperatorSpec, make_dirichlet_laplacian

from helpers import traced_peak
from spectral_reference import semigroup_apply, yosida_generator


def grid_200():
    return TimeGrid(0.0, 1.0, 200)


def linearized_states(op, J, K, t0_index, xi, u, v, ens):
    """The (n_paths, N + 1, n) history of :func:`iter_linearized`, zero
    before t0_index."""
    states = np.zeros((ens.n_paths, ens.grid.n_steps + 1, op.n_modes))
    for j, x in iter_linearized(op, J, K, t0_index, xi, u, v, ens):
        states[:, j] = x
    return states


def cost_estimate(scenario, x0, control, ens):
    """Mean cost over the paths and its standard error."""
    costs = cost_paths(scenario, simulate_controlled(scenario, x0, control, ens))
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs)))


def test_timegrid_validation():
    # a fractional step count or a horizon that is not finite fails here,
    # not as a numpy TypeError in sampling or as NaN increments
    for args in [(1.0, 1.0, 10), (0.0, 1.0, 0), (0.0, 1.0, 2.5), (0.0, np.nan, 10),
                 (0.0, np.inf, 10), (np.nan, 1.0, 10)]:
        with pytest.raises(DomainError):
            TimeGrid(*args)
    g = grid_200()
    assert g.dt == pytest.approx(0.005)
    assert np.all(np.diff(g.times()) > 0)


def test_brownian_reproducible_and_stream_separated():
    g = grid_200()
    a = sample_brownian(g, 50, 7)
    b = sample_brownian(g, 50, 7)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = sample_brownian(g, 50, 8)
    assert np.any(a.increments != c.increments)


def test_brownian_prefix_stable_in_path_count():
    g = TimeGrid(0.0, 1.0, 20)
    small = sample_brownian(g, 10, 3)
    big = sample_brownian(g, 40, 3)
    np.testing.assert_array_equal(big.increments[:10], small.increments)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**32 + 5, 2**127 + 3, 2**200 + 9])
def test_child_states_are_numpys_spawned_words(seed):
    # one-word seeds and seeds of 2, 4 and 7 words; 7 words move the hash
    # constant past the parent's extra mixing
    n = 600
    words = child_states(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    children = np.random.SeedSequence(seed).spawn(n)
    for i in (0, 1, 255, 256, 511, n - 1):
        np.testing.assert_array_equal(words[i], children[i].generate_state(4, np.uint64))


@pytest.mark.parametrize("n_paths", [1, 2 * SAMPLE_BLOCK])
def test_brownian_rows_are_the_spawned_streams(n_paths):
    g = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(g, n_paths, 4)
    children = np.random.SeedSequence(4).spawn(n_paths)
    expected = np.stack([np.random.default_rng(c).standard_normal(30) for c in children])
    np.testing.assert_array_equal(ens.increments, expected * np.sqrt(g.dt))


@pytest.mark.parametrize("n_paths", [0, 2.5, "3", None, True])
def test_brownian_rejects_a_path_count_that_is_not_a_positive_integer(n_paths):
    # 2.5 and "3" used to end in a numpy or Python TypeError, True drew one path
    with pytest.raises(DomainError, match="n_paths must be an integer >= 1"):
        sample_brownian(grid_200(), n_paths, 1)


def test_integer_counts_take_numpy_integers():
    ens = sample_brownian(TimeGrid(0.0, 1.0, np.int64(20)), np.int64(3), np.uint8(4))
    np.testing.assert_array_equal(ens.increments, sample_brownian(TimeGrid(0.0, 1.0, 20), 3, 4)
                                  .increments)
    with pytest.raises(DomainError, match="n_steps must be an integer"):
        TimeGrid(0.0, 1.0, True)


@pytest.mark.parametrize("seed", [-1, 1.0, "3", None, True])
def test_brownian_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
        sample_brownian(grid_200(), 4, seed)


def test_brownian_column_variance():
    # per-column sample variance at n = 1e4 has sd ~ sqrt(2/n) = 1.4%, so 5%
    # is a 3.5-sigma bound per column; seed frozen so the max over all 200
    # columns stays inside it
    g = grid_200()
    ens = sample_brownian(g, 10_000, 13)
    var = ens.increments.var(axis=0, ddof=1)
    assert np.all(np.abs(var / g.dt - 1.0) < 0.05)
    # column means vanish at the root-n rate
    means = ens.increments.mean(axis=0)
    assert np.all(np.abs(means) < 4.5 * np.sqrt(g.dt / 10_000))


def test_brownian_paths_cumulative():
    g = TimeGrid(0.0, 1.0, 4)
    ens = sample_brownian(g, 3, 0)
    w = ens.brownian_paths()
    assert w.shape == (3, 5)
    np.testing.assert_allclose(w[:, -1], ens.increments.sum(axis=1), rtol=1e-15)


def _free_decay_scenario(n=3):
    op = make_dirichlet_laplacian(n, 1.0)
    return Scenario(
        op=op,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.zeros_like(x),
        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )


def test_semigroup_flow_exact():
    scenario = _free_decay_scenario()
    g = TimeGrid(0.0, 0.5, 50)
    ens = sample_brownian(g, 4, 1)
    x0 = np.array([1.0, 0.0, 0.0])
    traj = simulate_controlled(scenario, x0, OpenLoop(np.zeros((50, 1))), ens)
    for j in (0, 7, 50):
        expected = semigroup_apply(scenario.op, j * g.dt, x0)
        np.testing.assert_allclose(traj.states[:, j], np.tile(expected, (4, 1)), rtol=1e-12)


def test_linear_scenario_scaling_exact():
    op = OperatorSpec(2, np.array([-1.0, -2.0]))
    J = np.array([[0.1, 0.05], [0.0, -0.2]])
    K = np.array([[0.3, 0.0], [0.1, 0.2]])
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: x @ J.T,
        diffusion=lambda t, x, u: x @ K.T,
        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )
    g = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(g, 64, 5)
    control = OpenLoop(np.zeros((100, 1)))
    x0 = np.array([1.0, -0.5])
    t1 = simulate_controlled(scenario, x0, control, ens)
    t2 = simulate_controlled(scenario, 2.0 * x0, control, ens)
    np.testing.assert_array_equal(t2.states, 2.0 * t1.states)


def test_scalar_brownian_variance():
    scenario, _ = make_lq_scalar(sigma=1.0)
    g = grid_200()
    ens = sample_brownian(g, 10_000, 21)
    traj = simulate_controlled(scenario, np.array([0.0]), OpenLoop(np.zeros((200, 1))), ens)
    xT = traj.states[:, -1, 0]
    var = xT.var(ddof=1)
    se = np.sqrt(2.0 / (len(xT) - 1))  # stderr of the variance of N(0,1)-ish data
    assert abs(var - 1.0) < 3 * se


def test_divergence_guard():
    op = OperatorSpec(1, np.array([0.0]))
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: 1e13 * np.ones_like(x),
        diffusion=lambda t, x, u: np.zeros_like(x),
        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )
    g = TimeGrid(0.0, 1.0, 4)
    ens = sample_brownian(g, 2, 0)
    with pytest.raises(SimulationDivergedError) as err:
        simulate_controlled(scenario, np.array([0.0]), OpenLoop(np.zeros((4, 1))), ens)
    assert err.value.step == 1


def test_adaptedness_future_increments_do_not_matter():
    scenario, _ = make_lq_scalar()
    g = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(g, 16, 9)
    control = Feedback(lambda t, x: -x)
    base = simulate_controlled(scenario, scenario.x0, control, ens)
    cut = 30
    tampered = sample_brownian(g, 16, 9)
    tampered.increments[:, cut:] = 12345.0 * np.arange(16)[:, None]
    tam = simulate_controlled(scenario, scenario.x0, control, tampered)
    np.testing.assert_array_equal(base.states[:, : cut + 1], tam.states[:, : cut + 1])
    assert np.any(base.states[:, cut + 1 :] != tam.states[:, cut + 1 :])


def test_moment_scaling_quadratic():
    op = OperatorSpec(2, np.array([-1.0, -0.5]))
    J = np.array([[0.0, 0.2], [-0.1, 0.0]])
    K = 0.4 * np.eye(2)
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: x @ J.T,
        diffusion=lambda t, x, u: x @ K.T,
        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )
    g = TimeGrid(0.0, 1.0, 80)
    ens = sample_brownian(g, 256, 3)
    control = OpenLoop(np.zeros((80, 1)))
    v = np.array([1.0, 0.5])
    sup = []
    for c in (1.0, 2.0, 4.0):
        traj = simulate_controlled(scenario, c * v, control, ens)
        second = np.mean(np.sum(traj.states**2, axis=-1), axis=0)
        assert np.all(np.isfinite(second))
        sup.append(second.max())
    assert sup[1] == pytest.approx(4.0 * sup[0], rel=1e-12)
    assert sup[2] == pytest.approx(16.0 * sup[0], rel=1e-12)


# ----------------------------------------------------------------------
# linear test equation dz = (Az + v1) dt + v2 dw
# ----------------------------------------------------------------------

def test_linear_test_homogeneous_flow():
    op = make_dirichlet_laplacian(2, 1.0)
    g = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(g, 8, 2)
    eta = np.array([1.0, -1.0])
    states = linearized_states(op, None, None, 10, eta, None, None, ens)
    np.testing.assert_array_equal(states[:, :10], 0.0)
    for j in (10, 25, 40):
        expected = semigroup_apply(op, (j - 10) * g.dt, eta)
        np.testing.assert_allclose(states[:, j], np.tile(expected, (8, 1)), rtol=1e-12)


def test_linear_test_constant_forcing_integral():
    op = OperatorSpec(1, np.array([0.0]))
    g = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(g, 4, 6)
    c = 0.7
    v1 = np.full((100, 1), c)
    states = linearized_states(op, None, None, 20, np.array([0.0]), v1, None, ens)
    elapsed = (100 - 20) * g.dt
    np.testing.assert_allclose(states[:, -1, 0], c * elapsed, rtol=1e-12)


def test_linear_test_noise_is_mean_zero():
    op = OperatorSpec(1, np.array([0.0]))
    g = grid_200()
    ens = sample_brownian(g, 20_000, 13)
    v2 = np.ones((200, 1))
    states = linearized_states(op, None, None, 0, np.array([0.0]), None, v2, ens)
    zT = states[:, -1, 0]
    stderr = zT.std(ddof=1) / np.sqrt(len(zT))
    assert abs(zT.mean()) < 3 * stderr


# ----------------------------------------------------------------------
# linearized equation dx = ((A+J)x + u) dt + (Kx + v) dw
# ----------------------------------------------------------------------

def test_linear_test_bounded_generator_approximation():
    # replacing the generator by its bounded approximation reproduces the
    # exact flow as the resolvent parameter grows
    op = make_dirichlet_laplacian(3, 1.0)
    g = TimeGrid(0.0, 0.5, 50)
    ens = sample_brownian(g, 16, 8)
    eta = np.array([1.0, -0.5, 0.25])
    v2 = np.ones((50, 3)) * 0.2

    exact = linearized_states(op, None, None, 0, eta, None, v2, ens)
    gaps = []
    for lam in (1e2, 1e4):
        approx = linearized_states(yosida_generator(op, lam), None, None, 0, eta, None, v2, ens)
        gaps.append(np.max(np.abs(approx - exact)))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-2


def test_linearized_homogeneous_matches_semigroup():
    op = make_dirichlet_laplacian(2, 1.0)
    g = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(g, 4, 4)
    xi = np.array([1.0, 0.0])
    states = linearized_states(op, None, None, 0, xi, None, None, ens)
    for j in (0, 15, 40):
        expected = semigroup_apply(op, j * g.dt, xi)
        np.testing.assert_allclose(states[:, j], np.tile(expected, (4, 1)), rtol=1e-12)


def test_linearized_second_moment_recursion():
    op = OperatorSpec(1, np.array([0.0]))
    kappa = 0.8
    g = grid_200()
    ens = sample_brownian(g, 20_000, 17)
    K = np.full((200, 1, 1), kappa)
    states = linearized_states(op, None, K, 0, np.array([1.0]), None, None, ens)
    xT2 = states[:, -1, 0] ** 2
    exact_discrete = (1.0 + kappa**2 * g.dt) ** 200
    stderr = xT2.std(ddof=1) / np.sqrt(len(xT2))
    assert abs(xT2.mean() - exact_discrete) < 3 * stderr


def test_linearized_superposition():
    op = make_dirichlet_laplacian(2, 1.0)
    g = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(g, 32, 19)
    rng = np.random.default_rng(0)
    J = rng.standard_normal((30, 2, 2)) * 0.1
    K = rng.standard_normal((30, 2, 2)) * 0.1
    xi = np.array([0.3, -0.4])
    v = rng.standard_normal((30, 2)) * 0.2
    a = linearized_states(op, J, K, 0, xi, None, None, ens)
    b = linearized_states(op, J, K, 0, np.zeros(2), None, v, ens)
    c = linearized_states(op, J, K, 0, xi, None, v, ens)
    np.testing.assert_allclose(a + b, c, atol=1e-12)


def test_linearized_coefficient_layouts_agree():
    # a constant input, the same input tiled over steps and broadcast over
    # paths are one process: every branch of the step slice gives the same states
    op = make_dirichlet_laplacian(2, 1.0)
    g = TimeGrid(0.0, 1.0, 30)
    P, N = 6, g.n_steps
    ens = sample_brownian(g, P, 9)
    J = np.array([[0.3, -0.1], [0.2, -0.4]])
    K = np.array([[0.1, 0.05], [-0.2, 0.15]])
    s = np.linspace(0.0, 2.0, N)[:, None]
    u = np.cos(s) * np.array([0.5, -0.3])
    v = np.sin(s) * np.array([0.2, 0.4])
    xi = np.array([1.0, -0.5])
    ref = linearized_states(op, J, K, 3, xi, u, v, ens)
    for JK in ((N, 2, 2), (P, N, 2, 2)):
        got = linearized_states(
            op, np.broadcast_to(J, JK), np.broadcast_to(K, JK), 3, xi, u, v, ens)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    got = linearized_states(
        op, J, K, 3, xi, np.broadcast_to(u, (P, N, 2)), np.broadcast_to(v, (P, N, 2)), ens)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_strong_order_window():
    # scalar geometric dynamics vs the exact exponential solution
    theta, kappa = 0.5, 0.6
    op = OperatorSpec(1, np.array([0.0]))
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: theta * x,
        diffusion=lambda t, x, u: kappa * x,
        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )
    errors = []
    fine = sample_brownian(TimeGrid(0.0, 1.0, 400), 1000, 23)
    for factor in (2, 1):
        n = 200 * factor
        g = TimeGrid(0.0, 1.0, n)
        incr = fine.increments.reshape(1000, n, 400 // n).sum(axis=2)
        from smpkit.forward import BrownianEnsemble

        ens = BrownianEnsemble(g, 1000, incr, 23)
        traj = simulate_controlled(scenario, np.array([1.0]), OpenLoop(np.zeros((n, 1))), ens)
        wT = incr.sum(axis=1)
        exact = np.exp((theta - 0.5 * kappa**2) + kappa * wT)
        errors.append(np.sqrt(np.mean((traj.states[:, -1, 0] - exact) ** 2)))
    ratio = errors[1] / errors[0]  # error(dt) / error(dt/2)
    assert 1.2 <= ratio <= 3.0


# ----------------------------------------------------------------------
# cost estimation
# ----------------------------------------------------------------------

def test_cost_zero():
    scenario = _free_decay_scenario()
    g = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(g, 8, 1)
    est, se = cost_estimate(scenario, np.zeros(3), OpenLoop(np.zeros((20, 1))), ens)
    assert est == 0.0 and se == 0.0


def test_cost_constant_running():
    op = make_dirichlet_laplacian(2, 1.0)
    scenario = Scenario(
        op=op,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.zeros_like(x),
        running_cost=lambda t, x, u: np.ones(x.shape[0]),
        terminal_cost=lambda x: np.zeros(x.shape[0]),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
    )
    g = TimeGrid(0.0, 1.0, 200)
    ens = sample_brownian(g, 16, 2)
    est, se = cost_estimate(scenario, np.zeros(2), OpenLoop(np.zeros((200, 1))), ens)
    assert se == 0.0
    assert est == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name, shape, read, expected", [
    ("drift_x", (4, 5), lambda s, x, u: s.jacobian("a", "x", 0.1, x, u), "(6, 4, 4)"),
    ("drift_x", (4,), lambda s, x, u: s.jacobian("a", "x", 0.1, x, u), "(6, 4, 4)"),
    ("diffusion_u", (4, 3), lambda s, x, u: s.vjp("b", "u", 0.1, x, u, x), "(6, 4, 2)"),
    ("running_grad_x", (5,), lambda s, x, u: s.grad_x_running(0.1, x, u), "(6, 4)"),
    ("running_hess_x", (4, 5), lambda s, x, u: s.hess_x_running(0.1, x, u), "(6, 4, 4)"),
    ("drift_xx", (4, 4, 5), lambda s, x, u: s.hamiltonian_hess_x(0.1, x, u, x, x),
     "(6, 4, 4, 4)"),
], ids=["drift_x", "drift_x_row", "diffusion_u", "running_grad_x", "running_hess_x",
        "drift_xx"])
def test_derivative_callback_of_the_wrong_shape_is_named(name, shape, read, expected):
    # heat4 has n = 4 modes and m = 2 controls; a callback returning another
    # shape than its per-path stack or its one matrix fails with the shape
    # it should have had, not with numpy's broadcast error, and a row is not
    # broadcast into a Jacobian
    scenario, _ = make_heat_scenario()
    setattr(scenario, name, lambda *args: np.zeros(shape))
    x, u = np.ones((6, 4)), np.ones((6, 2))
    with pytest.raises(DimensionError, match=re.escape(expected)):
        read(scenario, x, u)


def test_cost_at_feedback_matches_oracle_value():
    from smpkit.scenarios import riccati_oracle

    scenario, params = make_lq_scalar()
    g = grid_200()
    ens = sample_brownian(g, 10_000, 61)
    oracle = riccati_oracle(params, g)
    est, se = cost_estimate(scenario, scenario.x0, oracle.feedback(), ens)
    target = oracle.value_at(scenario.x0)
    assert abs(est - target) <= 3 * se + 1.0 * g.dt


def test_control_projection_box_and_grid():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    u = np.array([[3.0, -1.0], [0.5, 1.0]])
    np.testing.assert_array_equal(box.projection(u), [[1.0, 0.0], [0.5, 1.0]])

    fg = FiniteGrid(points=[[0.0], [1.0], [2.0]])
    np.testing.assert_array_equal(fg.projection(np.array([[0.5], [1.6], [-3.0]])), [[0.0], [2.0], [0.0]])
    # tie at 0.5 between 0 and 1: first index wins
    assert fg.projection(np.array([[0.5]]))[0, 0] == 0.0


def test_box_rejects_a_nan_bound():
    # a NaN bound would project every control to NaN, and the run would end
    # as a divergence at step 1; infinite bounds stay allowed
    for lo, hi in [([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, np.nan], [1.0, 1.0])]:
        with pytest.raises(DomainError, match="invalid box bounds"):
            Box(lo, hi)
    np.testing.assert_array_equal(Box([-np.inf], [np.inf]).projection(np.array([[3.0]])), [[3.0]])


def test_finite_grid_rejects_a_nan_point():
    for points in [[[np.nan]], [[0.0, 1.0], [np.nan, 0.0]]]:
        with pytest.raises(DomainError, match="finite"):
            FiniteGrid(points)


def test_controls_recorded_after_projection():
    scenario, _ = make_lq_scalar(control_bound=0.5)
    g = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(g, 3, 0)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.full((10, 1), 2.0)), ens)
    np.testing.assert_array_equal(traj.controls_used, np.full((3, 10, 1), 0.5))


@pytest.mark.parametrize("control_set", [Box(lo=[-0.5, -0.2], hi=[0.5, 0.3]),
                                         FiniteGrid(points=[[0.0, 0.0], [0.4, -0.1], [-1.0, 1.0]])])
def test_shared_open_loop_projected_once_matches_per_step(control_set):
    # shared (N, m) values are projected as one block; per-path copies of
    # the same values are projected step by step, and must give the same bits
    scenario, _ = make_heat_scenario(n_modes=4, control_dim=2)
    scenario.control_set = control_set
    g = TimeGrid(0.0, 1.0, 12)
    ens = sample_brownian(g, 200, 11)
    values = np.random.default_rng(2).uniform(-2.0, 2.0, (12, 2))
    shared = simulate_controlled(scenario, scenario.x0, OpenLoop(values), ens)
    per_path = simulate_controlled(
        scenario, scenario.x0, OpenLoop(np.broadcast_to(values, (200, 12, 2)).copy()), ens)
    np.testing.assert_array_equal(shared.controls_used, per_path.controls_used)
    np.testing.assert_array_equal(shared.states, per_path.states)
    assert not np.array_equal(shared.controls_used[0], values)  # the projection acted


def test_shared_control_is_stored_once():
    # the shared (N, m) block is recorded as a read-only broadcast over paths:
    # no (P, N, m) controls are allocated, only the states and per-step work
    scenario, _ = make_lq_scalar(control_bound=0.5)
    g = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(g, 2000, 7)
    values = np.linspace(-1.0, 1.0, 50)[:, None]
    peak, traj = traced_peak(simulate_controlled, scenario, scenario.x0, OpenLoop(values), ens)
    slack = 16 * ens.n_paths * 8  # sixteen (n_paths,) columns of one step
    assert peak <= traj.states.nbytes + slack, (peak, traj.states.nbytes, slack)
    used = traj.controls_used
    assert used.shape == (2000, 50, 1) and used.strides[0] == 0
    np.testing.assert_array_equal(used[7], np.clip(values, -0.5, 0.5))
    with pytest.raises(ValueError, match="read-only"):
        used[0, 0, 0] = 0.0


@pytest.mark.parametrize("shape", [(8,), (8, 1), (8, 3), (5, 2), ()])
def test_feedback_values_of_wrong_shape_are_a_dimension_error(shape):
    # heat4's m = 2: a step's values are (n_paths, 2), and one column is not
    # copied into both controls
    scenario, _ = make_heat_scenario(4)
    ens = sample_brownian(TimeGrid(0.0, 1.0, 4), 8, 3)
    assert scenario.control_dim == 2
    with pytest.raises(DimensionError, match=r"control values at step 0 have shape"):
        simulate_controlled(scenario, scenario.x0, Feedback(lambda t, x: np.zeros(shape)), ens)


def test_feedback_column_is_the_one_control():
    # with m = 1 a (n_paths,) return is the (n_paths, 1) control
    scenario, _ = make_lq_scalar()
    ens = sample_brownian(TimeGrid(0.0, 1.0, 10), 20, 3)
    column = simulate_controlled(scenario, scenario.x0, Feedback(lambda t, x: -x[:, 0]), ens)
    matrix = simulate_controlled(scenario, scenario.x0, Feedback(lambda t, x: -x), ens)
    assert column.controls_used.shape == (20, 10, 1)
    np.testing.assert_array_equal(column.controls_used, matrix.controls_used)
    np.testing.assert_array_equal(column.states, matrix.states)


@pytest.mark.parametrize("values", [np.zeros((10, 1)), np.zeros((20, 10, 1)), [0.0] * 10])
def test_bare_values_are_not_a_control(values):
    # values not wrapped in an OpenLoop ended in an AttributeError from ``at``
    scenario, _ = make_lq_scalar()
    ens = sample_brownian(TimeGrid(0.0, 1.0, 10), 20, 3)
    with pytest.raises(DomainError, match="control must be an OpenLoop or a Feedback"):
        simulate_controlled(scenario, scenario.x0, values, ens)


def test_a_point_of_another_length_is_not_in_a_control_set():
    # a 1-entry point broadcast against a 2-dimensional set and was "in" it
    for control_set in (Box([-1.0, -1.0], [1.0, 1.0]), FiniteGrid([[0.0, 0.0], [1.0, 1.0]])):
        for point in ([0.0], [[0.0], [1.0]], [0.0, 0.0, 0.0]):
            with pytest.raises(DimensionError, match="the set's dimension is 2"):
                control_set.contains(point)
        assert control_set.contains([[0.0, 0.0], [1.0, 1.0]]).all()


@pytest.mark.parametrize("shape", [(5, 1), (10, 2), (7, 10, 1), (12, 1)])
def test_open_loop_values_of_wrong_shape_are_a_dimension_error(shape):
    # 10 steps, 20 paths, m = 1: only (10, 1) and (20, 10, 1) are values
    scenario, _ = make_lq_scalar()
    ens = sample_brownian(TimeGrid(0.0, 1.0, 10), 20, 3)
    with pytest.raises(DimensionError, match="open-loop values have shape"):
        simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros(shape)), ens)
    for control in (OpenLoop(np.zeros(shape)), np.zeros(shape)):
        with pytest.raises(DimensionError, match="open-loop values have shape"):
            projected_gradient(scenario, scenario.x0, control, ens, max_iters=1)
