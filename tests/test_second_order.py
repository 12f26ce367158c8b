import tracemalloc

import numpy as np
import pytest

from smpkit.adjoint import RegressionBasis, StepFeatures, solve_first_adjoint
from smpkit.errors import DimensionError, DomainError, EnsembleMismatchError
from smpkit.forward import OpenLoop, TimeGrid, sample_brownian, simulate_controlled
from smpkit.maximum_principle import second_order_data
from smpkit.scenarios import build_preset, load_preset
from smpkit.second_order import (
    brownian_features,
    lyapunov_oracle,
    mat_to_vec,
    max_asymmetry,
    solve_second_adjoint,
    vec_to_mat,
)
from smpkit.spectral import OperatorSpec, make_dirichlet_laplacian

from helpers import per_path_jacobians
from spectral_reference import semigroup_apply


def test_vec_convention_column_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(mat_to_vec(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(vec_to_mat(mat_to_vec(m), 2), m)


def _congruence_flow(op, dt, m):
    """S(dt) M S*(dt) in the diagonal model: entry (k, l) scaled by
    exp((mu_k + mu_l) dt)."""
    return m * np.exp(np.add.outer(op.eigenvalues, op.eigenvalues) * dt)


def test_tensor_semigroup_identity_and_scaling():
    op = make_dirichlet_laplacian(1, 1.0)
    m = np.array([[1.0]])
    np.testing.assert_array_equal(_congruence_flow(op, 0.0, m), m)
    out = _congruence_flow(op, 0.05, m)
    assert out[0, 0] == pytest.approx(np.exp(-2 * np.pi**2 * 0.05), rel=1e-12)
    assert out[0, 0] == pytest.approx(0.3727078, abs=5e-7)


def test_tensor_semigroup_law():
    # the congruence flow the oracle tests use is S(dt) M S*(dt) with the
    # library semigroup, and composes as a flow
    op = make_dirichlet_laplacian(3, 1.0)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3))
    S = semigroup_apply(op, 0.1, np.eye(3))
    np.testing.assert_allclose(_congruence_flow(op, 0.1, m), S @ m @ S.T, rtol=1e-12)
    a = _congruence_flow(op, 0.07, _congruence_flow(op, 0.03, m))
    np.testing.assert_allclose(a, _congruence_flow(op, 0.10, m), rtol=1e-12)


# ----------------------------------------------------------------------
# deterministic oracle
# ----------------------------------------------------------------------

def test_lyapunov_congruence_flow():
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 400)
    rng = np.random.default_rng(1)
    P_T = rng.standard_normal((2, 2))
    P_T = 0.5 * (P_T + P_T.T)
    sol = lyapunov_oracle(op, None, None, None, P_T, grid)
    times = grid.times()
    for j in (0, 100, 400):
        tau = grid.T - times[j]
        expected = _congruence_flow(op, tau, P_T)
        assert np.max(np.abs(sol[j] - expected)) < 1e-8


def test_lyapunov_symmetry_preserved():
    op = OperatorSpec(3, np.array([-0.2, -1.0, -2.5]))
    rng = np.random.default_rng(2)
    J = rng.standard_normal((3, 3)) * 0.3
    K = rng.standard_normal((3, 3)) * 0.4
    F = rng.standard_normal((3, 3))
    F = 0.5 * (F + F.T)
    P_T = np.eye(3)
    sol = lyapunov_oracle(op, J, K, F, P_T, TimeGrid(0.0, 1.0, 100))
    assert max_asymmetry(sol) < 1e-10


def test_lyapunov_scalar_closed_form():
    op = OperatorSpec(1, np.array([0.0]))
    kappa, p_T = 0.5, 1.0
    grid = TimeGrid(0.0, 1.0, 400)
    sol = lyapunov_oracle(op, None, np.array([[kappa]]), None, np.array([[p_T]]), grid)
    times = grid.times()
    exact = p_T * np.exp(kappa**2 * (grid.T - times))
    assert np.max(np.abs(sol[:, 0, 0] - exact)) < 1e-8


# ----------------------------------------------------------------------
# regression sweep
# ----------------------------------------------------------------------

def test_sweep_zero_data():
    op = OperatorSpec(2, np.array([0.0, -1.0]))
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 500, 3)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((2, 2)), ens)
    for j in (0, 10, 20):
        np.testing.assert_allclose(sa.P_paths(j), 0.0, atol=1e-12)
    np.testing.assert_allclose(sa.Q_paths(5), 0.0, atol=1e-12)


def test_sweep_terminal_exact_per_path():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 200, 5)
    P_T = np.random.default_rng(0).standard_normal((200, 1, 1))
    sa = solve_second_adjoint(op, None, None, None, P_T, ens)
    np.testing.assert_array_equal(sa.P_paths(10), P_T)


def test_terminal_slice_of_P_is_read_only():
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, scenario.T, 10)
    ens = sample_brownian(grid, 200, 3)
    traj = simulate_controlled(scenario, scenario.x0,
                               OpenLoop(np.zeros((10, scenario.control_dim))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    before = sa.P_paths(10).copy()
    w = sa.P_paths(10)
    with pytest.raises(ValueError):
        w *= 2
    np.testing.assert_array_equal(sa.P_paths(10), before)
    np.testing.assert_array_equal(sa.P_terminal, P_T)


def test_sweep_scalar_closed_form_one_percent():
    op = OperatorSpec(1, np.array([0.0]))
    kappa, p_T = 0.5, 1.0
    grid = TimeGrid(0.0, 1.0, 400)
    ens = sample_brownian(grid, 10_000, 7)
    sa = solve_second_adjoint(op, None, np.array([[kappa]]), None, np.array([[p_T]]), ens)
    times = grid.times()
    for j in (0, 100, 300):
        exact = p_T * np.exp(kappa**2 * (grid.T - times[j]))
        approx = sa.P_mean(j)[0, 0]
        assert abs(approx - exact) / exact < 0.01


def test_sweep_matches_lyapunov_oracle():
    op = OperatorSpec(2, np.array([-0.3, -1.0]))
    J = np.array([[0.1, -0.2], [0.05, 0.0]])
    K = np.array([[0.4, 0.1], [0.0, 0.3]])
    F = np.array([[1.0, 0.2], [0.2, 0.5]])
    P_T = -np.eye(2)
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 5000, 9)
    sa = solve_second_adjoint(op, J, K, F, P_T, ens)
    oracle = lyapunov_oracle(op, J, K, F, P_T, grid)
    for j in (0, 40, 99):
        err = np.max(np.abs(sa.P_mean(j) - oracle[j]))
        assert err < 0.02 + 3 * 0.5 / np.sqrt(ens.n_paths * grid.dt)


def test_sweep_matches_one_step_recursion():
    # with deterministic data every target is constant, so the regression is
    # exact up to the ridge (1e-12 here), Q vanishes, and both storage modes
    # follow the explicit recursion P_j = S(P_{j+1}) - dt (-J*P - PJ - K*PK
    # + F) with P = S(P_{j+1}) = S(dt) P_{j+1} S*(dt); non-symmetric,
    # time-indexed J and K tell J*P + PJ apart from JP + PJ*, which the
    # Monte Carlo tolerance of the Lyapunov-oracle test above cannot
    op = OperatorSpec(2, np.array([-0.3, -1.0]))
    n_steps, n_paths = 50, 2000
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, 9)
    ramp = np.linspace(0.5, 1.5, n_steps)[:, None, None]
    J = ramp * np.array([[0.1, -0.4], [0.3, 0.0]])
    K = ramp * np.array([[0.4, 0.2], [-0.3, 0.3]])
    F = np.array([[1.0, 0.2], [0.2, 0.5]])
    P_T = np.array([[-1.0, 0.3], [-0.2, -0.5]])
    basis = RegressionBasis(ridge=1e-12)
    coeff = solve_second_adjoint(op, J, K, F, P_T, ens, features=brownian_features(ens, basis))
    per_path = [np.broadcast_to(c, (n_paths,) + c.shape) for c in (J, K)]
    dense = solve_second_adjoint(op, *per_path, F, P_T, ens,
                                 features=brownian_features(ens, basis))
    assert not coeff.per_path and dense.per_path
    p = P_T
    for j in range(n_steps - 1, -1, -1):
        s = _congruence_flow(op, grid.dt, p)
        p = s - grid.dt * (-J[j].T @ s - s @ J[j] - K[j].T @ s @ K[j] + F)
        for sa in (coeff, dense):
            np.testing.assert_allclose(sa.P_paths(j), np.broadcast_to(p, (n_paths, 2, 2)),
                                       rtol=0, atol=1e-10)


def test_sweep_symmetry_drift_small():
    op = OperatorSpec(2, np.array([-0.5, -1.5]))
    K = 0.3 * np.eye(2)
    F = np.eye(2)
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 2000, 11)
    sa = solve_second_adjoint(op, None, K, F, -np.eye(2), ens)
    assert sa.symmetry_drift <= 1e-6
    for j in (0, 25):
        assert max_asymmetry(sa.P_paths(j)) <= 1e-6


def test_tensor_propagator_one_step_consistency():
    # treating the generator through the congruence flow versus folding it
    # into the one-step driver differs by O(dt^2) per step: halving dt
    # quarters the gap
    op = OperatorSpec(3, np.array([-0.5, -1.5, -3.0]))
    A = np.diag(op.eigenvalues)
    rng = np.random.default_rng(7)
    P1 = rng.standard_normal((3, 3))
    P1 = 0.5 * (P1 + P1.T)
    F = np.eye(3)

    def gap(dt):
        flow_step = _congruence_flow(op, dt, P1) + dt * F
        euler_step = P1 + dt * (A.T @ P1 + P1 @ A) + dt * F
        return np.max(np.abs(flow_step - euler_step))

    ratio = gap(0.02) / gap(0.01)
    assert 3.0 < ratio < 5.0


def test_sweep_refinement_toward_oracle():
    op = OperatorSpec(1, np.array([-0.4]))
    K = np.array([[0.5]])
    F = np.array([[1.0]])
    P_T = np.array([[-1.0]])
    errs = []
    for n_steps, n_paths in ((50, 1000), (100, 4000)):
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = sample_brownian(grid, n_paths, 13)
        sa = solve_second_adjoint(op, None, K, F, P_T, ens)
        oracle = lyapunov_oracle(op, None, K, F, P_T, grid)
        errs.append(abs(sa.P_mean(0)[0, 0] - oracle[0, 0, 0]))
    assert errs[1] < errs[0]


def test_sweep_dense_mode_pathwise_coefficients():
    # path-dependent K: coefficient storage must switch to dense histories
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 800, 15)
    rng = np.random.default_rng(4)
    K_path = 0.3 + 0.05 * rng.standard_normal((800, 30, 1, 1))
    sa = solve_second_adjoint(op, None, K_path, None, np.array([[1.0]]), ens)
    assert sa.per_path
    assert sa.P_paths(0).shape == (800, 1, 1)
    # sandwich between the constant-coefficient closed forms
    lo = np.exp(0.25**2)
    hi = np.exp(0.45**2)
    mean0 = sa.P_mean(0)[0, 0]
    assert lo * 0.9 < mean0 < hi * 1.1


def test_coefficient_mode_matches_dense_mode_heat4():
    # the coefficient-mode sweep regresses on X @ beta_P[j] instead of the
    # per-path driver update; the same J, K, F broadcast to per path force
    # the dense sweep, which must agree at every step
    scenario, _ = build_preset(load_preset("heat4"))
    n_steps, n_paths = 40, 600
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, 21)
    control = OpenLoop(np.full((n_steps, scenario.control_dim), 0.2))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    assert J.ndim == 3
    coeff = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    per_path = [np.broadcast_to(c, (n_paths,) + c.shape) for c in (J, K, F)]
    dense = solve_second_adjoint(scenario.op, *per_path, P_T, ens, features=pair.features)
    assert not coeff.per_path and dense.per_path
    # path means to 1e-12; single paths carry the rounding of the unscaled
    # regression (heat4's high modes make the Gram matrix near singular), so
    # they get 1e-10
    for j in range(n_steps + 1):
        np.testing.assert_allclose(coeff.P_mean(j), dense.P_mean(j), rtol=0, atol=1e-12)
        np.testing.assert_allclose(coeff.P_paths(j), dense.P_paths(j), rtol=0, atol=1e-10)
    for j in range(n_steps):
        q_coeff, q_dense = coeff.Q_paths(j), dense.Q_paths(j)
        np.testing.assert_allclose(q_coeff.mean(axis=0), q_dense.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_coeff, q_dense, rtol=0, atol=1e-10)
    assert coeff.symmetry_drift == pytest.approx(dense.symmetry_drift, abs=1e-12)


def test_coefficient_mode_matches_dense_mode_nonsymmetric():
    # heat4's data (J = 0, K = beta I, F = I, P_T = -I) are symmetric and
    # constant, so a transposed cross moment X_{j+1}'X_j would go unseen
    # there; non-symmetric time-indexed J, K, F and a non-symmetric per-path
    # P_T do not hide it
    scenario, _ = build_preset(load_preset("heat4"))
    n, n_steps, n_paths = scenario.n_modes, 40, 600
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, 23)
    control = OpenLoop(np.full((n_steps, scenario.control_dim), 0.2))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    rng = np.random.default_rng(8)
    J, K, F = (scale * rng.standard_normal((n_steps, n, n)) for scale in (0.3, 0.3, 1.0))
    P_T = -np.eye(n) + 0.2 * rng.standard_normal((n_paths, n, n))
    coeff = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    per_path = [np.broadcast_to(c, (n_paths,) + c.shape) for c in (J, K, F)]
    dense = solve_second_adjoint(scenario.op, *per_path, P_T, ens, features=pair.features)
    assert not coeff.per_path and dense.per_path
    assert max_asymmetry(coeff.P_mean(0)) > 1e-3
    for j in range(n_steps + 1):
        np.testing.assert_allclose(coeff.P_mean(j), dense.P_mean(j), rtol=0, atol=1e-12)
        np.testing.assert_allclose(coeff.P_paths(j), dense.P_paths(j), rtol=0, atol=1e-10)
    for j in range(n_steps):
        q_coeff, q_dense = coeff.Q_paths(j), dense.Q_paths(j)
        np.testing.assert_allclose(q_coeff.mean(axis=0), q_dense.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_coeff, q_dense, rtol=0, atol=1e-10)


@pytest.mark.parametrize("coefficients", ["time-indexed", "per-path"])
def test_coefficient_sweep_allocates_no_path_target(coefficients):
    # after the per-path terminal step the sweep fits from moments: beyond
    # what it returns it holds two steps' (F, P) features and the (2F, P)
    # moment block (4 blocks, 5 allowed), and no (P, n^2) target or driver;
    # a per-step (P, n^2) target and its fitted values take it past 8.  With
    # per-path J, K, F each step's per-path rest is re-evaluated, and the
    # sweep stays under one (P, N+1, n^2) history
    scenario, _ = build_preset(load_preset("heat4"))
    if coefficients == "per-path":
        scenario = per_path_jacobians(scenario)
    n, n_steps, n_paths = scenario.n_modes, 50, 2000
    grid = TimeGrid(0.0, scenario.T, n_steps)
    ens = sample_brownian(grid, n_paths, 6)
    control = OpenLoop(np.zeros((n_steps, scenario.control_dim)))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    assert J.ndim == (4 if coefficients == "per-path" else 3)
    block = RegressionBasis().n_features(n) * n_paths * 8
    tracemalloc.start()
    try:
        sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if coefficients == "per-path":
        history = n_paths * (n_steps + 1) * n * n * 8
        assert peak < history, (peak, history)
    else:
        stored = sa.beta_P.nbytes + sa.beta_Q.nbytes + sa.P_terminal.nbytes
        assert peak < stored + 5 * block, (peak, stored, block)


def _heat4_pair(n_steps=40, n_paths=600, seed=25):
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, seed)
    control = OpenLoop(np.full((n_steps, scenario.control_dim), 0.2))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    return scenario, grid, ens, traj, solve_first_adjoint(scenario, traj, ens)


@pytest.mark.parametrize("data", ["heat4", "nonsymmetric"])
def test_second_sweep_reads_the_first_sweeps_moment_record(monkeypatch, data):
    # on the first adjoint's features the coefficient-mode sweep reads the
    # recorded Gram blocks, cross moments and solvers, and builds features
    # only for the per-path terminal target; it fits what a sweep on fresh
    # features of the same states fits
    scenario, grid, ens, traj, pair = _heat4_pair()
    n, N = scenario.n_modes, grid.n_steps
    if data == "heat4":
        J, K, F, P_T = second_order_data(scenario, traj, pair)
    else:
        rng = np.random.default_rng(8)
        J, K, F = (scale * rng.standard_normal((N, n, n)) for scale in (0.3, 0.3, 1.0))
        P_T = -np.eye(n) + 0.2 * rng.standard_normal((ens.n_paths, n, n))
    built = []
    features = RegressionBasis.features
    monkeypatch.setattr(RegressionBasis, "features",
                        lambda self, x, out=None: built.append(1) or features(self, x, out))
    on_record = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    assert len(built) <= 1
    monkeypatch.undo()
    fresh = solve_second_adjoint(scenario.op, J, K, F, P_T, ens,
                                 features=StepFeatures(RegressionBasis(), traj.states, ens))
    for name in ("beta_P", "beta_Q"):
        got, want = getattr(on_record, name), getattr(fresh, name)
        for j in range(N):
            scale = np.max(np.abs(want[j]))
            assert np.max(np.abs(got[j] - want[j])) <= 1e-14 * scale, (name, j)


def test_features_of_another_ensemble_rejected():
    scenario, grid, ens, traj, pair = _heat4_pair(n_steps=10, n_paths=300)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    other = sample_brownian(grid, ens.n_paths, 26)
    with pytest.raises(EnsembleMismatchError):
        solve_second_adjoint(scenario.op, J, K, F, P_T, other, features=pair.features)


def test_one_read_gives_the_slices_of_P_and_Q():
    # coefficient mode and per-path mode, whose P_j adds a rest formed from
    # the same two products
    scenario, _ = build_preset(load_preset("heat4"))
    n, n_steps, n_paths = scenario.n_modes, 12, 300
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, 27)
    traj = simulate_controlled(scenario, scenario.x0,
                               OpenLoop(np.full((n_steps, scenario.control_dim), 0.2)), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    rng = np.random.default_rng(9)
    J, K, F = (scale * rng.standard_normal((n_steps, n, n)) for scale in (0.3, 0.3, 1.0))
    P_T = -np.eye(n) + 0.2 * rng.standard_normal((n_paths, n, n))
    coeff = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    per_path = [np.broadcast_to(c, (n_paths,) + c.shape) for c in (J, K, F)]
    dense = solve_second_adjoint(scenario.op, *per_path, P_T, ens, features=pair.features)
    assert not coeff.per_path and dense.per_path
    for sa in (coeff, dense):
        for j in range(n_steps):
            P_j, Q_j = sa.at(j)
            np.testing.assert_array_equal(P_j, sa.P_paths(j))
            np.testing.assert_array_equal(Q_j, sa.Q_paths(j))
        for j in (-1, n_steps, 2.5):
            with pytest.raises(DomainError):
                sa.at(j)


@pytest.mark.parametrize("per_path_terminal", [False, True])
def test_the_solved_adjoint_keeps_the_checked_equation(per_path_terminal):
    # the duality verifier reads the equation off the adjoint, so it holds
    # the data the sweep used: J, K, F as checked, and P_T before its
    # per-path broadcast
    op, grid, data = _coefficients()
    ens = sample_brownian(grid, 200, 13)
    data["J"], data["F"] = data["J"].tolist(), None
    if per_path_terminal:
        data["P_T"] = np.eye(4) + 0.1 * ens.brownian_paths()[:, -1, None, None]
    sa = solve_second_adjoint(op, ens=ens, **data)
    assert sa.op is op and sa.ens is ens and sa.F is None and not sa.per_path
    assert sa.K is data["K"] and sa.P_T is data["P_T"]
    assert sa.J.dtype == float and sa.J.shape == (10, 4, 4)
    np.testing.assert_array_equal(sa.J, data["J"])
    assert sa.P_terminal.shape == (200, 4, 4)
    np.testing.assert_array_equal(sa.P_terminal, np.broadcast_to(sa.P_T, (200, 4, 4)))
    assert not hasattr(sa, "rest")


# ----------------------------------------------------------------------
# coefficient checks
# ----------------------------------------------------------------------

def _coefficients(replace=None):
    """Heat-type data at n = 4 and N = 10: (op, grid, {J, K, F, P_T}), with
    ``replace`` = (name, array) swapped in."""
    op = make_dirichlet_laplacian(4, 1.0)
    grid = TimeGrid(0.0, 1.0, 10)
    rng = np.random.default_rng(12)
    data = {name: 0.2 * rng.standard_normal((10, 4, 4)) for name in ("J", "K", "F")}
    data["P_T"] = np.eye(4)
    if replace is not None:
        data[replace[0]] = replace[1]
    return op, grid, data


MALFORMED = {
    "K_3x3": ("K", np.eye(3)),
    "P_T_3x3": ("P_T", np.eye(3)),
    "F_9_steps": ("F", np.zeros((9, 4, 4))),
    "J_11_steps": ("J", np.zeros((11, 4, 4))),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_solver_rejects_a_malformed_coefficient(case):
    name = MALFORMED[case][0]
    op, grid, data = _coefficients(MALFORMED[case])
    ens = sample_brownian(grid, 200, 13)
    with pytest.raises(DimensionError, match=f"^{name} has shape"):
        solve_second_adjoint(op, ens=ens, **data)


@pytest.mark.parametrize("case", ["K_3x3", "F_9_steps", "J_11_steps"])
def test_lyapunov_oracle_rejects_a_malformed_coefficient(case):
    name = MALFORMED[case][0]
    op, grid, data = _coefficients(MALFORMED[case])
    with pytest.raises(DimensionError, match=f"^{name} has shape"):
        lyapunov_oracle(op, grid=grid, **data)


@pytest.mark.parametrize("name", ["J", "K", "F", "P_T"])
@pytest.mark.parametrize("entry", ["solver", "oracle"])
def test_nonfinite_coefficient_is_a_domain_error(entry, name):
    # an all-NaN K used to run to a NaN solution, or to a LinAlgError in the
    # oracle's stiffness estimate
    op, grid, data = _coefficients()
    data[name] = np.full_like(data[name], np.nan)
    with pytest.raises(DomainError, match=f"^{name} has a NaN"):
        if entry == "solver":
            solve_second_adjoint(op, ens=sample_brownian(grid, 200, 14), **data)
        else:
            lyapunov_oracle(op, grid=grid, **data)


def test_per_path_coefficients_are_rejected_by_the_oracle():
    # the oracle's data are nonrandom, so no shape has a path axis
    op, grid, data = _coefficients()
    data["K"] = np.broadcast_to(data["K"], (5, 10, 4, 4))
    with pytest.raises(DimensionError, match="^K has shape"):
        lyapunov_oracle(op, grid=grid, **data)
