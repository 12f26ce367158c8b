import dataclasses

import numpy as np
import pytest

from duality_reference import (
    fixed_tuple,
    loop_first_identity,
    loop_random_first_test,
    loop_random_second_test,
    loop_second_identity,
)
from adjoint_reference import dense_pair
from helpers import deterministic_data_scenario

from smpkit.adjoint import solve_first_adjoint
from smpkit.duality import (
    ForcingSpec,
    StartSpec,
    TupleSpec,
    describe_first_test,
    describe_second_test,
    lipschitz_probe,
    random_first_test,
    random_second_test,
    verify_first_identities,
    verify_first_identity,
    verify_second_identities,
    verify_second_identity,
)
from smpkit.errors import (
    DimensionError,
    DomainError,
    SimulationDivergedError,
)
from smpkit.forward import Box, OpenLoop, Scenario, TimeGrid, sample_brownian, simulate_controlled
from smpkit.maximum_principle import second_order_data
from smpkit.scenarios import build_preset, load_preset
from smpkit.second_order import lyapunov_oracle, solve_second_adjoint
from smpkit.spectral import OperatorSpec, make_dirichlet_laplacian


def _zero_pair(op, ens, driver=None):
    shape_Y = (ens.n_paths, ens.grid.n_steps, op.n_modes)
    driver = np.zeros(shape_Y) if driver is None else driver
    y = np.zeros((ens.n_paths, ens.grid.n_steps + 1, op.n_modes))
    return dense_pair(op, ens, y, np.zeros(shape_Y), driver)


def test_first_identity_zero_data_exact():
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 100, 1)
    pair = _zero_pair(op, ens)
    report = verify_first_identity(pair, fixed_tuple(0, (np.zeros(2),), (None, None)))
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.residual == 0.0
    assert report.passed


def test_first_identity_deterministic_oracle_case():
    op = OperatorSpec(2, np.array([0.0, -1.0]))
    c = np.array([0.6, -0.3])
    v = np.array([-0.2, 0.8])
    scenario = deterministic_data_scenario(op, c, v, b_const=0.4)
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 4000, 3)
    traj = simulate_controlled(scenario, np.array([1.0, 0.5]), OpenLoop(np.zeros((100, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    rng = np.random.default_rng(0)
    for _ in range(5):
        test = describe_first_test(op, ens, rng)
        report = verify_first_identity(pair, test, bias_budget=0.5 * grid.dt)
        assert report.passed, f"residual {report.residual} tol {report.tolerance}"


def test_first_identity_localizes_y():
    # v1 supported on a single step isolates y there:
    # lhs = dt * <c, y_j*> once eta = v2 = 0 and data are deterministic
    op = OperatorSpec(1, np.array([-0.5]))
    c = np.array([0.7])
    v = np.array([1.0])
    scenario = deterministic_data_scenario(op, c, v, b_const=0.3)
    grid = TimeGrid(0.0, 1.0, 50)
    ens = sample_brownian(grid, 4000, 5)
    traj = simulate_controlled(scenario, np.array([1.0]), OpenLoop(np.zeros((50, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    j_star = 20
    probe = np.array([1.0])
    v1 = np.zeros((50, 1))
    v1[j_star] = probe
    report = verify_first_identity(pair, fixed_tuple(0, (np.zeros(1),), (v1, None)),
                                   bias_budget=1e-9)
    recovered = report.lhs / grid.dt
    # the isolated value is the regressed conditional mean at j_star
    y_j, _, f_j = pair.at(j_star, with_driver=True)
    y_star = (y_j[:, 0] + grid.dt * f_j[:, 0]).mean()
    assert recovered == pytest.approx(y_star, abs=3 * report.stderr / grid.dt + 1e-6)
    assert abs(recovered - y_j[:, 0].mean()) < 0.05  # same object up to O(dt)
    assert report.passed


def test_first_identity_bilinear_in_test_data():
    op = OperatorSpec(1, np.array([0.0]))
    scenario = deterministic_data_scenario(op, np.array([0.5]), np.array([1.0]), b_const=0.5)
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 500, 7)
    traj = simulate_controlled(scenario, np.array([1.0]), OpenLoop(np.zeros((30, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    rng = np.random.default_rng(1)
    test = describe_first_test(op, ens, rng)
    doubled = dataclasses.replace(
        test,
        starts=tuple(StartSpec(2 * s.c0, 2 * s.c1) for s in test.starts),
        forcings=tuple(dataclasses.replace(f, profile=2 * f.profile) for f in test.forcings))
    base = verify_first_identity(pair, test)
    twice = verify_first_identity(pair, doubled)
    assert twice.lhs == pytest.approx(2 * base.lhs, rel=1e-13)
    assert twice.rhs == pytest.approx(2 * base.rhs, rel=1e-13)


def test_first_identity_leaves_single_path_pair_unchanged():
    # with one path a step read of a dense pair is a contiguous slice of its
    # y, so the verifier must not add the driver into it in place
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 1, 4)
    rng = np.random.default_rng(2)
    y = rng.normal(size=(1, 11, 2))
    y_before = y.copy()
    pair = dense_pair(op, ens, y, rng.normal(size=(1, 10, 2)), rng.normal(size=(1, 10, 2)))
    test = describe_first_test(op, ens, np.random.default_rng(3))
    first = verify_first_identity(pair, test)
    np.testing.assert_array_equal(y, y_before)
    second = verify_first_identity(pair, test)
    assert (second.lhs, second.rhs) == (first.lhs, first.rhs)


# ----------------------------------------------------------------------
# second-order identity
# ----------------------------------------------------------------------

def test_second_identity_zero_data_exact():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 100, 2)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((1, 1)), ens)
    test = fixed_tuple(0, (np.zeros(1), np.zeros(1)), (None,) * 4)
    report = verify_second_identity(sa, test)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed


def test_second_identity_state_only_reduction_matches_oracle():
    op = OperatorSpec(2, np.array([-0.3, -1.2]))
    J = np.array([[0.1, 0.0], [0.2, -0.1]])
    K = np.array([[0.3, 0.1], [0.0, 0.25]])
    F = np.array([[1.0, 0.1], [0.1, 0.4]])
    P_T = -np.eye(2)
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 8000, 11)
    sa = solve_second_adjoint(op, J, K, F, P_T, ens)
    oracle = lyapunov_oracle(op, J, K, F, P_T, grid)
    rng = np.random.default_rng(3)
    for t_index in (0, 25, 50):
        xi1 = rng.standard_normal(2)
        xi2 = rng.standard_normal(2)
        test = fixed_tuple(t_index, (xi1, xi2), (None,) * 4)
        report = verify_second_identity(sa, test, bias_budget=0.5 * grid.dt)
        assert report.passed
        # and the P(t) pairing itself agrees with the deterministic sweep
        oracle_pairing = xi1 @ oracle[t_index] @ xi2
        assert report.rhs == pytest.approx(
            float(np.mean(np.einsum("pij,j->pi", sa.P_paths(t_index), xi1) @ xi2)), rel=1e-10
        )
        assert abs(report.rhs - oracle_pairing) <= 3 * report.stderr + 0.5 * grid.dt


def test_second_identity_full_refinement_monotone():
    op = OperatorSpec(1, np.array([0.0]))
    K = np.array([[0.5]])
    F = np.array([[1.0]])
    P_T = np.array([[-1.0]])
    rng_master = np.random.default_rng(4)
    residuals = []
    for n_steps, n_paths in ((50, 1000), (100, 4000), (200, 16000)):
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = sample_brownian(grid, n_paths, 13)
        sa = solve_second_adjoint(op, None, K, F, P_T, ens)
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(3):
            test = describe_second_test(op, ens, rng)
            report = verify_second_identity(sa, test)
            worst = max(worst, abs(report.residual))
        residuals.append(worst)
    assert residuals[2] < residuals[1] < residuals[0]


# ----------------------------------------------------------------------
# coefficient-stability probe
# ----------------------------------------------------------------------

def _probe_forcings(op, grid, count=3):
    rng = np.random.default_rng(21)
    times = np.linspace(0.0, 1.0, grid.n_steps)
    probes = []
    for k in range(count):
        prof = np.cos((k + 1) * np.pi * times)[:, None] * rng.standard_normal((1, op.n_modes))
        probes.append(prof)
    return probes


def test_probe_zero_delta_exact():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(grid, 1000, 5)
    K = np.array([[0.5]])
    report = lipschitz_probe(op, None, K, K, np.array([[0.0]]), np.array([[1.0]]),
                             _probe_forcings(op, grid), ens)
    assert report.delta == 0.0
    np.testing.assert_array_equal(report.discrepancies, 0.0)


def test_probe_of_another_shape_is_a_dimension_error():
    # a (3, 2) probe on a 1-mode, 20-step grid used to end in an IndexError
    op = OperatorSpec(1, np.array([0.0]))
    ens = sample_brownian(TimeGrid(0.0, 1.0, 20), 200, 5)
    K = np.array([[0.5]])
    with pytest.raises(DimensionError, match="a probe has shape"):
        lipschitz_probe(op, None, K, K, None, np.eye(1), [np.ones((3, 2))], ens)


def test_probe_without_a_perturbed_K_takes_K_zero():
    # K_perturbed=None used to end in LinAlgError: SVD did not converge
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(grid, 1000, 5)
    K = np.array([[0.5]])
    P_T = (1.0 + np.tanh(ens.brownian_paths()[:, -1]))[:, None, None]
    probes = _probe_forcings(op, grid)
    got = lipschitz_probe(op, None, K, None, None, P_T, probes, ens)
    want = lipschitz_probe(op, None, K, np.zeros((1, 1)), None, P_T, probes, ens)
    assert got.delta == want.delta == 0.5 and got.ratio == want.ratio > 0
    np.testing.assert_array_equal(got.discrepancies, want.discrepancies)


def test_probe_ratio_stable_across_deltas():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 4000, 7)
    K = np.array([[0.5]])
    # random terminal data: the martingale component is genuinely nonzero
    P_T = (1.0 + np.tanh(ens.brownian_paths()[:, -1]))[:, None, None]
    probes = _probe_forcings(op, grid)
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        report = lipschitz_probe(op, None, K, K + delta, None, P_T, probes, ens)
        assert report.delta == pytest.approx(delta)
        ratios.append(report.ratio)
    assert min(ratios) > 0.1  # a real functional, not numerical dust
    assert max(ratios) <= 2.0 * min(ratios)


def test_probe_scales_linearly_with_data():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 60)
    ens = sample_brownian(grid, 2000, 9)
    K = np.array([[0.4]])
    F = np.array([[1.0]])
    P_T = np.array([[1.0]])
    probes = _probe_forcings(op, grid)
    r1 = lipschitz_probe(op, None, K, K + 0.1, F, P_T, probes, ens)
    r2 = lipschitz_probe(op, None, K, K + 0.1, 2 * F, 2 * P_T, probes, ens)
    np.testing.assert_allclose(r2.discrepancies, 2.0 * r1.discrepancies, rtol=1e-12)


# ----------------------------------------------------------------------
# stacked pass against the single-tuple calls and the per-tuple loop
# ----------------------------------------------------------------------

EQUIV_RTOL = 1e-12


def _mixed_tuples(describe, op, ens, seed):
    """Eight described tuples with mixed start steps (0, N//2 and others)."""
    N = ens.grid.n_steps
    starts = (0, N // 2, 3, 0, N // 2, 7, 1, N // 2 - 1)
    return [
        dataclasses.replace(describe(op, ens, np.random.default_rng([seed, i])), t_index=t)
        for i, t in enumerate(starts)
    ]


def _assert_same_reports(stacked, singles, loops):
    assert len(stacked) == len(singles) == len(loops)
    for got, single, loop in zip(stacked, singles, loops):
        for ref in (single, loop):
            assert got.t_index == ref.t_index
            assert got.passed == ref.passed
            for field in ("lhs", "rhs", "stderr"):
                np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                           rtol=EQUIV_RTOL, atol=0.0, err_msg=field)


def _heat4_setup(n_steps=40, n_paths=600, seed=3):
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, 1.0, n_steps)
    ens = sample_brownian(grid, n_paths, seed)
    traj = simulate_controlled(scenario, scenario.x0,
                               OpenLoop(np.zeros((n_steps, scenario.control_dim))), ens)
    pair = solve_first_adjoint(scenario, traj, ens)
    return scenario, grid, ens, traj, pair


def _check_second_equivalence(op, J, K, F, P_T, sa, ens, bias_budget, seed):
    w = ens.brownian_paths()
    tests = _mixed_tuples(describe_second_test, op, ens, seed)
    stacked = verify_second_identities(sa, tests, bias_budget=bias_budget)
    singles = [verify_second_identity(sa, t, bias_budget=bias_budget) for t in tests]
    loops = [loop_second_identity(sa, op, J, K, F, P_T, t.materialize(w), ens,
                                  bias_budget=bias_budget) for t in tests]
    _assert_same_reports(stacked, singles, loops)


def test_stacked_first_identities_match_single_tuple_heat4():
    scenario, grid, ens, traj, pair = _heat4_setup()
    op = scenario.op
    w = ens.brownian_paths()
    budget = scenario.c_bias_first * grid.dt
    tests = _mixed_tuples(describe_first_test, op, ens, 17)
    stacked = verify_first_identities(pair, tests, bias_budget=budget)
    singles = [verify_first_identity(pair, t, bias_budget=budget) for t in tests]
    loops = [loop_first_identity(pair, op, t.materialize(w), ens,
                                 bias_budget=budget) for t in tests]
    _assert_same_reports(stacked, singles, loops)


def test_stacked_second_identities_match_single_tuple_heat4_coefficient_mode():
    scenario, grid, ens, traj, pair = _heat4_setup()
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    assert not sa.per_path  # coefficient storage
    _check_second_equivalence(scenario.op, J, K, F, P_T, sa, ens,
                              scenario.c_bias_second * grid.dt, 29)


def test_stacked_second_identities_match_single_tuple_nonsymmetric_data():
    # non-symmetric J, K, F and P_T, so a transpose swapped in the verifier's
    # paths-innermost arrangements of P_j or Q_j would show
    scenario, grid, ens, traj, pair = _heat4_setup(n_steps=12, n_paths=300, seed=27)
    n = scenario.n_modes
    rng = np.random.default_rng(9)
    J, K, F = (scale * rng.standard_normal((grid.n_steps, n, n)) for scale in (0.3, 0.3, 1.0))
    P_T = -np.eye(n) + 0.2 * rng.standard_normal((ens.n_paths, n, n))
    sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, features=pair.features)
    assert not sa.per_path  # coefficient storage
    _check_second_equivalence(scenario.op, J, K, F, P_T, sa, ens,
                              scenario.c_bias_second * grid.dt, 41)


def test_stacked_second_identities_match_single_tuple_mat_scalar():
    mat = load_preset("mat_scalar")
    op = OperatorSpec(1, np.array([0.0]))
    K = np.array([[float(mat["kappa"])]])
    F = np.array([[float(mat["forcing"])]])
    P_T = np.array([[float(mat["terminal"])]])
    grid = TimeGrid(0.0, 1.0, 40)
    ens = sample_brownian(grid, 800, 5)
    sa = solve_second_adjoint(op, None, K, F, P_T, ens)
    _check_second_equivalence(op, None, K, F, P_T, sa, ens,
                              float(mat["c_bias_second"]) * grid.dt, 31)


def test_stacked_second_identities_match_single_tuple_dense_mode():
    op = OperatorSpec(2, np.array([-0.3, -1.2]))
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 800, 15)
    rng = np.random.default_rng(4)
    J_path = np.array([[0.1, 0.0], [0.2, -0.1]]) + 0.05 * rng.standard_normal((800, 30, 2, 2))
    K_path = 0.3 * np.eye(2) + 0.05 * rng.standard_normal((800, 30, 2, 2))
    F_path = np.array([[1.0, 0.1], [0.1, 0.4]]) + 0.1 * rng.standard_normal((800, 30, 2, 2))
    P_T = -np.eye(2)
    sa = solve_second_adjoint(op, J_path, K_path, F_path, P_T, ens)
    assert sa.per_path
    _check_second_equivalence(op, J_path, K_path, F_path, P_T, sa, ens, 0.5 * grid.dt, 37)


def test_materialized_descriptions_reproduce_tuple_arrays():
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 200, 8)
    w = ens.brownian_paths()
    for describe, random_test, loop_test in (
        (describe_first_test, random_first_test, loop_random_first_test),
        (describe_second_test, random_second_test, loop_random_second_test),
    ):
        for i in range(4):
            rngs = [np.random.default_rng([9, i]) for _ in range(3)]
            expected = loop_test(scenario.op, ens, rngs[0])
            for got in (describe(scenario.op, ens, rngs[1]).materialize(w),
                        random_test(scenario.op, ens, rngs[2])):
                assert got[0] == expected[0]
                assert len(got) == len(expected)
                for a, b in zip(got[1:], expected[1:]):
                    np.testing.assert_array_equal(a, b)
            # the same number of draws: the streams continue identically
            follow = [rng.standard_normal() for rng in rngs]
            assert follow[0] == follow[1] == follow[2]


def test_materialize_passes_an_absent_forcing_through():
    # a None slot is a zero forcing to the verifiers, and stays None in the
    # arrays the loop references take
    scenario, grid, ens, traj, pair = _heat4_setup(n_steps=20, n_paths=200)
    op, n, w = scenario.op, scenario.n_modes, ens.brownian_paths()
    rng = np.random.default_rng(6)
    profile = np.cos(np.linspace(0.0, 1.0, 20))[:, None] * rng.standard_normal(n)
    spec = TupleSpec(3, (StartSpec(rng.standard_normal(n), rng.standard_normal(n)),),
                     (None, ForcingSpec(profile, 1.3, 0.4)))
    t_index, eta, v1, v2 = spec.materialize(w)
    assert t_index == 3 and v1 is None and v2.shape == (200, 20, n)
    got = verify_first_identity(pair, spec)
    ref = loop_first_identity(pair, op, spec.materialize(w), ens)
    for field in ("lhs", "rhs", "stderr"):
        np.testing.assert_allclose(getattr(got, field), getattr(ref, field),
                                   rtol=EQUIV_RTOL, atol=0.0, err_msg=field)


# ----------------------------------------------------------------------
# malformed tuple data, divergence, tuple order and the active prefix
# ----------------------------------------------------------------------

def _two_mode_setup(n_paths=100):
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, n_paths, 1)
    return op, grid, ens


@pytest.mark.parametrize("shape", [(19, 2), (20, 3)])
def test_forcing_of_wrong_shape_is_a_dimension_error(shape):
    op, grid, ens = _two_mode_setup()
    pair = _zero_pair(op, ens)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((2, 2)), ens)
    bad = np.ones(shape)
    with pytest.raises(DimensionError):
        verify_first_identity(pair, fixed_tuple(0, (np.zeros(2),), (bad, None)))
    with pytest.raises(DimensionError):
        verify_second_identity(sa, fixed_tuple(0, (np.zeros(2),) * 2, (None, None, bad, None)))


def test_tuples_other_than_descriptions_are_a_dimension_error():
    # the verifiers take only TupleSpec; raw per-path arrays are no input
    op, grid, ens = _two_mode_setup()
    pair = _zero_pair(op, ens)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((2, 2)), ens)
    with pytest.raises(DimensionError, match="TupleSpec"):
        verify_first_identity(pair, (0, np.zeros(2), None, None))
    with pytest.raises(DimensionError, match="TupleSpec"):
        verify_second_identity(sa, (0, np.zeros(2), np.zeros(2), None, None, None, None))
    with pytest.raises(DimensionError, match="StartSpec"):
        verify_first_identity(pair, TupleSpec(0, (np.zeros(2),), (None, None)))
    with pytest.raises(DimensionError, match="ForcingSpec"):
        verify_first_identity(pair, TupleSpec(0, (StartSpec(np.zeros(2), np.zeros(2)),),
                                              (np.ones((20, 2)), None)))
    with pytest.raises(DimensionError, match="2 forcings"):
        verify_first_identity(pair, fixed_tuple(0, (np.zeros(2),), (None,)))


def test_fractional_t_index_is_a_domain_error():
    op, grid, ens = _two_mode_setup()
    pair = _zero_pair(op, ens)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((2, 2)), ens)
    with pytest.raises(DomainError):
        verify_first_identity(pair, fixed_tuple(2.5, (np.zeros(2),), (None, None)))
    with pytest.raises(DomainError):
        verify_second_identity(sa, fixed_tuple(2.5, (np.zeros(2),) * 2, (None,) * 4))


@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_nonfinite_or_huge_forcing_diverges_in_both_verifiers(bad):
    scenario, grid, ens, traj, pair = _heat4_setup(n_steps=20, n_paths=200)
    op, n = scenario.op, scenario.n_modes
    forcing = np.ones((20, n))
    forcing[5] = bad
    with pytest.raises(SimulationDivergedError):
        verify_first_identity(pair, fixed_tuple(0, (np.zeros(n),), (forcing, None)))
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(op, J, K, F, P_T, ens, features=pair.features)
    test = fixed_tuple(0, (np.zeros(n),) * 2, (forcing, None, None, None))
    with pytest.raises(SimulationDivergedError):
        verify_second_identity(sa, test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_divergence_is_reported_at_its_step_and_path(bad):
    # one bad entry on one path: the simulator and both verifiers name the
    # step it reaches the guarded values at, and that path
    op, grid, ens = _two_mode_setup()
    step, path = 7, 42
    times = grid.times()

    def drift(t, x, u):
        out = np.zeros_like(x)
        if t == times[step - 1]:
            out[path, 1] = bad
        return out

    scenario = Scenario(op=op, drift=drift, diffusion=lambda t, x, u: np.zeros_like(x),
                        running_cost=lambda t, x, u: np.zeros(x.shape[0]),
                        terminal_cost=lambda x: np.zeros(x.shape[0]),
                        control_dim=1, control_set=Box(lo=[-1.0], hi=[1.0]))
    driver = np.zeros((100, 20, 2))
    driver[path, step, 0] = bad  # b_step = S(dt) b_{step+1} - dt f_step
    pair = _zero_pair(op, ens, driver)
    J = np.zeros((100, 20, 2, 2))
    J[path, step - 1, 0, 0] = bad     # x_step = S(dt) (I + dt J_{step-1}) x_{step-1}
    # the solve refuses a non-finite J, so the adjoint is mutated after it
    sa = dataclasses.replace(solve_second_adjoint(op, None, None, None, np.zeros((2, 2)), ens),
                             J=J)
    runs = (
        lambda: simulate_controlled(scenario, np.ones(2), OpenLoop(np.zeros((20, 1))), ens),
        lambda: verify_first_identity(pair, fixed_tuple(0, (np.ones(2),), (None, None))),
        lambda: verify_second_identity(sa, fixed_tuple(0, (np.ones(2),) * 2, (None,) * 4)),
    )
    for run in runs:
        with pytest.raises(SimulationDivergedError,
                           match=f"^simulation diverged at step {step}, path {path}$") as err:
            run()
        assert (err.value.step, err.value.path) == (step, path)


def _ordered_tuples(op, ens, starts, n_starts, n_forcings, adapted, seed):
    """Tuples at the given start steps whose every forcing is adapted, or
    whose data are all deterministic."""
    N, n = ens.grid.n_steps, op.n_modes
    out = []
    for i, t in enumerate(starts):
        rng = np.random.default_rng([seed, i])
        profiles = [np.cos(rng.uniform(0, 4) * np.linspace(0, 1, N))[:, None]
                    * rng.standard_normal(n) for _ in range(n_forcings)]
        if adapted:
            out.append(TupleSpec(
                t, tuple(StartSpec(rng.standard_normal(n), rng.standard_normal(n))
                         for _ in range(n_starts)),
                tuple(ForcingSpec(p, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi))
                      for p in profiles)))
        else:
            out.append(fixed_tuple(t, [rng.standard_normal(n) for _ in range(n_starts)],
                                   profiles))
    return out


@pytest.mark.parametrize("adapted", [False, True])
@pytest.mark.parametrize("order", ["descending", "mixed"])
def test_reports_come_back_in_input_order(order, adapted):
    scenario, grid, ens, traj, pair = _heat4_setup(n_steps=30, n_paths=400)
    op, N = scenario.op, grid.n_steps
    starts = {"descending": (N, N - 3, 17, 7, 2, 0),
              "mixed": (7, 0, N, 2, 7, N // 2, 0)}[order]
    w = ens.brownian_paths()

    tests = _ordered_tuples(op, ens, starts, 1, 2, adapted, 41)
    stacked = verify_first_identities(pair, tests)
    assert [r.t_index for r in stacked] == list(starts)
    _assert_same_reports(
        stacked, [verify_first_identity(pair, t) for t in tests],
        [loop_first_identity(pair, op, t.materialize(w), ens) for t in tests])

    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(op, J, K, F, P_T, ens, features=pair.features)
    tests = _ordered_tuples(op, ens, starts, 2, 4, adapted, 43)
    stacked = verify_second_identities(sa, tests)
    assert [r.t_index for r in stacked] == list(starts)
    _assert_same_reports(
        stacked, [verify_second_identity(sa, t) for t in tests],
        [loop_second_identity(sa, op, J, K, F, P_T, t.materialize(w), ens) for t in tests])
