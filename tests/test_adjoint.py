import tracemalloc

import numpy as np
import pytest

from smpkit.adjoint import (
    RegressionBasis,
    RidgeSolver,
    solve_first_adjoint,
)
from smpkit.errors import DegenerateBasisError, DomainError, EnsembleMismatchError
from smpkit.forward import (
    Box,
    Feedback,
    OpenLoop,
    Scenario,
    TimeGrid,
    path_constant_steps,
    sample_brownian,
    simulate_controlled,
)
from smpkit.maximum_principle import second_order_data
from smpkit.scenarios import build_preset, load_preset, make_lq_scalar, riccati_oracle
from smpkit.spectral import OperatorSpec, make_dirichlet_laplacian

from spectral_reference import deterministic_first_adjoint

# ----------------------------------------------------------------------
# regression primitive
# ----------------------------------------------------------------------

def test_regress_exact_interpolation():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 4))
    beta_true = rng.standard_normal((4, 2))
    Z = X @ beta_true
    beta = RidgeSolver(X.T @ X, 0.0).solve(X.T @ Z)
    np.testing.assert_allclose(X @ beta, Z, atol=1e-10)


def test_regress_constant_column_gives_mean():
    Z = np.array([[1.0], [2.0], [3.0], [6.0]])
    X = np.ones((4, 1))
    beta = RidgeSolver(X.T @ X, 0.0).solve(X.T @ Z)
    np.testing.assert_allclose(X @ beta, 3.0, rtol=1e-14)


def test_regress_recovers_coefficients_under_noise():
    rng = np.random.default_rng(1)
    X = np.concatenate([np.ones((10_000, 1)), rng.standard_normal((10_000, 3))], axis=1)
    beta_true = np.array([[0.5], [1.0], [-2.0], [0.3]])
    noise = 0.5 * rng.standard_normal((10_000, 1))
    Z = X @ beta_true + noise
    beta = RidgeSolver(X.T @ X, 0.0).solve(X.T @ Z)
    # classical stderr of each coefficient ~ sigma / sqrt(n)
    se = 0.5 / np.sqrt(10_000)
    assert np.all(np.abs(beta - beta_true) < 3 * se * 1.5)


def test_regress_singular_raises():
    X = np.zeros((50, 2))
    with pytest.raises(DegenerateBasisError):
        RidgeSolver(X.T @ X, 0.0)


def test_basis_feature_count_and_overfit_guard():
    basis = RegressionBasis()
    assert basis.n_features(1) == 3
    assert basis.n_features(4) == 15
    assert basis.n_features(6) == 15  # capped at 4 modes
    x = np.random.default_rng(2).standard_normal((7, 4))
    assert basis.features(x).shape == (7, 15)

    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 5)
    ens = sample_brownian(grid, 20, 0)  # 3 features > 20/10
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((5, 1))), ens)
    with pytest.raises(DegenerateBasisError):
        solve_first_adjoint(scenario, traj, ens)


# ----------------------------------------------------------------------
# deterministic backward recursion
# ----------------------------------------------------------------------

def test_deterministic_adjoint_pure_flow():
    op = make_dirichlet_laplacian(1, 1.0)
    grid = TimeGrid(0.0, 0.1, 40)
    y = deterministic_first_adjoint(op, np.array([1.0]), None, grid)
    assert y[0, 0] == pytest.approx(np.exp(-np.pi**2 / 10), rel=1e-12)
    assert y[0, 0] == pytest.approx(0.3727078, abs=5e-7)


def test_deterministic_adjoint_constant_forcing():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 200)
    c = 0.8
    f = np.full((200, 1), c)
    y = deterministic_first_adjoint(op, np.array([0.0]), f, grid)
    times = grid.times()
    np.testing.assert_allclose(y[:, 0], -c * (1.0 - times), atol=1e-12)


def _exact_continuous_adjoint(op, yT, c, grid):
    """y(t) = S(T-t) yT - int_t^T S(s-t) c ds for constant c, per mode."""
    times = grid.times()
    mu = op.eigenvalues
    out = np.empty((len(times), op.n_modes))
    for i, t in enumerate(times):
        tau = grid.T - t
        flow = np.exp(mu * tau)
        integral = np.where(np.abs(mu) > 1e-14, (flow - 1.0) / np.where(mu == 0, 1.0, mu), tau)
        out[i] = flow * yT - integral * c
    return out


def test_deterministic_adjoint_quadrature_error_bound():
    op = OperatorSpec(3, np.array([0.0, -1.0, -2.0]))
    yT = np.array([0.5, -1.0, 2.0])
    c = np.array([0.8, -0.3, 1.1])
    for n_steps in (100, 200):
        grid = TimeGrid(0.0, 1.0, n_steps)
        f = np.tile(c, (n_steps, 1))
        approx = deterministic_first_adjoint(op, yT, f, grid)
        exact = _exact_continuous_adjoint(op, yT, c, grid)
        bound = 2.0 * grid.dt * np.max(np.abs(c)) * grid.T
        assert np.max(np.abs(approx - exact)) <= bound


# ----------------------------------------------------------------------
# regression sweep
# ----------------------------------------------------------------------

from helpers import deterministic_data_scenario as _deterministic_data_scenario
from helpers import per_path_jacobians


def test_sweep_zero_data_gives_zero():
    op = make_dirichlet_laplacian(2, 1.0)
    scenario = _deterministic_data_scenario(op, np.zeros(2), np.zeros(2))
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 200, 3)
    traj = simulate_controlled(scenario, np.array([1.0, 0.0]), OpenLoop(np.zeros((20, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    np.testing.assert_array_equal(pair.y_T, 0.0)
    for j in range(grid.n_steps):  # the pair is read one step at a time
        for half in pair.at(j):
            np.testing.assert_array_equal(half, 0.0)


def test_sweep_matches_deterministic_recursion():
    op = OperatorSpec(2, np.array([0.0, -1.0]))
    c = np.array([0.7, -0.2])
    v = np.array([-0.4, 1.0])
    scenario = _deterministic_data_scenario(op, c, v, b_const=0.5)
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 2000, 5)
    traj = simulate_controlled(scenario, np.array([1.0, 1.0]), OpenLoop(np.zeros((50, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    oracle = deterministic_first_adjoint(op, -v, np.tile(c, (50, 1)), grid)
    # deterministic targets are in the span of the intercept: agreement is
    # regression-exact up to the tiny ridge shift
    y_gap = max(np.max(np.abs(y_at(pair, j) - oracle[j])) for j in range(grid.n_steps + 1))
    assert y_gap < 1e-6
    # Y is pure regression noise around 0; check its coefficients are
    # statistically indistinguishable from zero (t-statistics)
    basis = RegressionBasis()
    decay = np.exp(op.eigenvalues * grid.dt)
    for j in (10, 25, 49):  # skip j=0, where all paths share the initial state
        X = basis.features(traj.states[:, j])
        target = y_at(pair, j + 1) * decay * (ens.increments[:, j : j + 1] / grid.dt)
        beta = RidgeSolver(X.T @ X, 0.0).solve(X.T @ target)
        fitted = X @ beta
        resid_sd = (target - fitted).std(axis=0, ddof=X.shape[1])
        cov_diag = np.sqrt(np.diag(np.linalg.inv(X.T @ X)))
        t_stats = np.abs(beta) / (cov_diag[:, None] * resid_sd[None, :])
        assert np.max(t_stats) < 4.5


def test_terminal_condition_exact():
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 500, 7)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((50, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    np.testing.assert_array_equal(pair.y_T, -traj.states[:, -1])


def test_martingale_residual_centered():
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(grid, 4000, 11)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((40, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    basis = RegressionBasis()
    decay = np.exp(scenario.op.eigenvalues * grid.dt)
    for j in (0, 13, 39):
        X = basis.features(traj.states[:, j])
        target = y_at(pair, j + 1) * decay
        fitted = X @ RidgeSolver(X.T @ X, basis.ridge).solve(X.T @ target)
        resid = (target - fitted)[:, 0]
        se = resid.std(ddof=1) / np.sqrt(len(resid))
        assert abs(resid.mean()) <= 3 * se + 1e-12


def test_adjoint_linearity_in_cost_scaling():
    base, _ = make_lq_scalar()
    doubled, _ = make_lq_scalar()
    doubled.running_cost = lambda t, x, u: 2.0 * base.running_cost(t, x, u)
    doubled.terminal_cost = lambda x: 2.0 * base.terminal_cost(x)
    doubled.running_grad_x = lambda t, x, u: 2.0 * x
    doubled.terminal_grad = lambda x: 2.0 * x
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 1000, 13)
    control = OpenLoop(np.zeros((30, 1)))
    traj = simulate_controlled(base, base.x0, control, ens)
    p1 = solve_first_adjoint(base, traj, ens)
    p2 = solve_first_adjoint(doubled, traj, ens)
    np.testing.assert_array_equal(p2.y_T, 2.0 * p1.y_T)
    for j in range(grid.n_steps):  # the pair is read one step at a time
        for half2, half1 in zip(p2.at(j), p1.at(j)):
            np.testing.assert_array_equal(half2, 2.0 * half1)


def test_oracle_error_shrinks_under_refinement():
    op = OperatorSpec(1, np.array([-0.5]))
    c = np.array([0.6])
    v = np.array([1.0])
    errors = []
    for n_steps, n_paths, seed in ((50, 1000, 17), (100, 4000, 17)):
        scenario = _deterministic_data_scenario(op, c, v, b_slope=0.4)
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = sample_brownian(grid, n_paths, seed)
        traj = simulate_controlled(scenario, np.array([1.0]), OpenLoop(np.zeros((n_steps, 1))), ens)
        pair = solve_first_adjoint(scenario, traj, ens)
        exact = _exact_continuous_adjoint(op, -v, c, grid)
        y_mean = np.array([y_at(pair, j).mean(axis=0) for j in range(n_steps + 1)])
        err = np.max(np.abs(y_mean - exact))
        errors.append(err)
    assert errors[1] < errors[0]


def test_lq_adjoint_matches_riccati_representation():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    ens = sample_brownian(grid, 20_000, 19)
    oracle = riccati_oracle(params, grid)
    traj = simulate_controlled(scenario, scenario.x0, oracle.feedback(), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    # representation y(t) = -p(t) xbar(t) with p = 1
    rel_err = []
    for j in (0, 50, 100, 150):
        target = -traj.states[:, j, 0]
        scale = np.sqrt(np.mean(target**2))
        rel_err.append(np.sqrt(np.mean((pair.at(j)[0][:, 0] - target) ** 2)) / scale)
    assert max(rel_err) < 0.05


def test_ensemble_mismatch_rejected():
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 20)
    ens_a = sample_brownian(grid, 400, 1)
    ens_b = sample_brownian(grid, 400, 2)
    traj = simulate_controlled(scenario, scenario.x0, OpenLoop(np.zeros((20, 1))), ens_a)
    with pytest.raises(EnsembleMismatchError):
        solve_first_adjoint(scenario, traj, ens_b)


# ----------------------------------------------------------------------
# coefficient form of Y and the driver
# ----------------------------------------------------------------------

from adjoint_reference import dense_first_adjoint, y_at


def _feedback_pair(preset, n_steps, n_paths, seed):
    # a linear feedback, so the controls differ across paths
    scenario, _ = build_preset(load_preset(preset))
    m = scenario.control_dim
    grid = TimeGrid(0.0, scenario.T, n_steps)
    ens = sample_brownian(grid, n_paths, seed)
    control = Feedback(lambda t, x: -0.5 * x[:, :m])
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    return scenario, grid, ens, traj, solve_first_adjoint(scenario, traj, ens)


@pytest.mark.parametrize("preset", ["heat4", "lq_scalar"])
def test_coefficient_pair_matches_dense_reference(preset):
    scenario, grid, ens, traj, pair = _feedback_pair(preset, 30, 600, 21)
    y, Y, driver = dense_first_adjoint(scenario, traj, ens)
    np.testing.assert_array_equal(pair.y_T, y[:, -1])
    for j in range(grid.n_steps):
        for got, want in zip(pair.at(j, with_driver=True), (y[:, j], Y[:, j], driver[:, j])):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("path_constant", [True, False])
def test_first_adjoint_allocates_one_path_history(path_constant):
    # y, Y and the driver are all coefficients, y with a per-path rest that
    # is re-evaluated on read: the sweep allocates no (P, N, n) history, only
    # per-step blocks
    scenario, _ = build_preset(load_preset("heat4"))
    if not path_constant:
        scenario = per_path_jacobians(scenario)
    grid = TimeGrid(0.0, scenario.T, 50)
    ens = sample_brownian(grid, 2000, 6)
    control = OpenLoop(np.zeros((50, scenario.control_dim)))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    n = scenario.n_modes
    assert (path_constant_steps(scenario.drift_x, traj, (n, n)) is None) != path_constant
    tracemalloc.start()
    try:
        pair = solve_first_adjoint(scenario, traj, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    history = ens.n_paths * grid.n_steps * scenario.n_modes * 8
    assert peak < history, (peak, history)


@pytest.mark.parametrize("preset", ["heat4", "lq_scalar"])
@pytest.mark.parametrize("path_constant", [True, False])
def test_one_read_gives_the_slices_of_y_and_Y(preset, path_constant):
    scenario, grid, ens, traj, pair = _feedback_pair(preset, 12, 300, 9)
    if not path_constant:
        scenario = per_path_jacobians(scenario)
        pair = solve_first_adjoint(scenario, traj, ens)
    # a read with the driver gives the same (y_j, Y_j), and a second read
    # gives them again
    for j in range(grid.n_steps):
        y_j, Y_j = pair.at(j)
        for got in (pair.at(j, with_driver=True)[:2], pair.at(j)):
            np.testing.assert_array_equal(got[0], y_j)
            np.testing.assert_array_equal(got[1], Y_j)
    for j in (-1, grid.n_steps, 2.5):
        rule = "is not an integer step" if j == 2.5 else "is outside"
        with pytest.raises(DomainError, match=f"step {j} {rule}"):
            pair.at(j)


@pytest.mark.parametrize("preset", ["heat4", "lq_scalar"])
@pytest.mark.parametrize("path_constant", [True, False])
def test_sweep_hands_its_consumer_what_pair_at_reads(preset, path_constant):
    # the consumer gets step j's (y_j, Y_j) inside the sweep, from N-1 down
    # to 0, with the bits of a later read: folded driver (one-matrix
    # Jacobians) and unfolded (batched Jacobians)
    scenario, grid, ens, traj, _ = _feedback_pair(preset, 12, 300, 9)
    if not path_constant:
        scenario = per_path_jacobians(scenario)
    handed = []
    pair = solve_first_adjoint(scenario, traj, ens,
                               consume=lambda j, y_j, Y_j: handed.append((j, y_j, Y_j)))
    assert [j for j, _, _ in handed] == list(range(grid.n_steps - 1, -1, -1))
    for j, y_j, Y_j in handed:
        for got, read in zip((y_j, Y_j), pair.at(j)):
            assert got.shape == read.shape and got.tobytes() == read.tobytes(), j


def test_terminal_slice_of_y_is_read_only():
    scenario, grid, ens, traj, pair = _feedback_pair("heat4", 10, 200, 3)
    before = pair.y_T.copy()
    v = pair.y_T
    with pytest.raises(ValueError):
        v *= 2
    np.testing.assert_array_equal(pair.y_T, before)


def _cross_cost_scenario():
    # Jacobian callbacks that return one matrix, declared nowhere else, and
    # g = |x|^2/2 + x'S u + |u|^2/2, so g_x = x + S u depends on the control
    op = OperatorSpec(2, np.array([-0.5, -1.5]))
    A = np.array([[0.1, -0.3], [0.2, 0.0]])
    B = np.array([[1.0], [0.5]])
    Kx = np.array([[0.2, 0.1], [0.0, 0.3]])
    D = np.array([[0.3], [0.1]])
    S = np.array([[0.7], [-0.4]])
    return Scenario(
        op=op,
        drift=lambda t, x, u: x @ A.T + u @ B.T,
        diffusion=lambda t, x, u: x @ Kx.T + u @ D.T,
        running_cost=lambda t, x, u: (0.5 * np.sum(x * x, axis=-1)
                                      + np.sum((x @ S) * u, axis=-1)
                                      + 0.5 * np.sum(u * u, axis=-1)),
        terminal_cost=lambda x: 0.5 * np.sum(x * x, axis=-1),
        control_dim=1,
        control_set=Box(lo=[-1.0], hi=[1.0]),
        running_grad_x=lambda t, x, u: x + u @ S.T,
        running_grad_u=lambda t, x, u: x @ S + u,
        terminal_grad=lambda x: x,
        running_hess_x=lambda t, x, u: np.eye(2),
        terminal_hess=lambda x: np.eye(2),
        drift_x=lambda t, x, u: A,
        diffusion_x=lambda t, x, u: Kx,
        drift_u=lambda t, x, u: B,
        diffusion_u=lambda t, x, u: D,
    )


def test_coefficient_y_keeps_the_control_dependent_gradient():
    # y_j = X_j beta_y - dt g_x: the rest -dt g_x carries the control, which a
    # nonlinear feedback puts outside the feature span, so dropping it or
    # folding it into the features shows against the per-path sweep.  The
    # initial states are spread per path: from one shared state the first
    # steps' unscaled features are nearly collinear, and their Gram matrix
    # would amplify the two sweeps' rounding differences to 1e-10.  The
    # one-matrix callbacks alone make the sweep fold y's driver (a read of y
    # calls no Jacobian) and second_order_data return (N, n, n) J and K
    calls = []
    scenario = _cross_cost_scenario()
    drift_x = scenario.drift_x
    scenario.drift_x = lambda t, x, u: calls.append(t) or drift_x(t, x, u)
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 1000, 31)
    control = Feedback(lambda t, x: np.sin(3.0 * x[:, :1]))
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, (ens.n_paths, 2))
    traj = simulate_controlled(scenario, x0, control, ens)
    coeff = solve_first_adjoint(scenario, traj, ens)
    calls.clear()
    coeff.at(5)
    assert calls == []
    J, K, _, _ = second_order_data(scenario, traj, coeff)
    assert J.shape == K.shape == (grid.n_steps, 2, 2)
    per_path_scenario = per_path_jacobians(scenario)
    assert path_constant_steps(per_path_scenario.drift_x, traj, (2, 2)) is None
    per_path = solve_first_adjoint(per_path_scenario, traj, ens)
    np.testing.assert_array_equal(coeff.y_T, per_path.y_T)
    for j in range(grid.n_steps):
        for a, b in zip(coeff.at(j, with_driver=True), per_path.at(j, with_driver=True)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_a_missing_second_derivative_of_a_one_matrix_jacobian_is_zero():
    # the cross-cost scenario is linear with g_xx = I: with a batched b_x
    # second_order_data takes its per-path branch, where the missing drift_xx
    # of the one-matrix drift_x means a_xx = 0, so F = -H_xx is I on every
    # path, bit for bit
    scenario = _cross_cost_scenario()
    Kx = scenario.diffusion_x(0.0, None, None)
    scenario.diffusion_x = lambda t, x, u: np.broadcast_to(Kx, (x.shape[0], 2, 2))
    scenario.diffusion_xx = lambda t, x, u: np.zeros((2, 2, 2))
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 300, 8)
    x0 = np.random.default_rng(2).uniform(-1.0, 1.0, (ens.n_paths, 2))
    traj = simulate_controlled(scenario, x0, Feedback(lambda t, x: np.sin(3.0 * x[:, :1])), ens)
    J, K, F, _ = second_order_data(scenario, traj, solve_first_adjoint(scenario, traj, ens))
    assert J.shape == K.shape == F.shape == (ens.n_paths, grid.n_steps, 2, 2)
    np.testing.assert_array_equal(F, np.broadcast_to(np.eye(2), F.shape))
