import dataclasses

import numpy as np
import pytest

from duality_reference import (
    loop_first_identity,
    loop_random_first_test,
    loop_random_second_test,
    loop_second_identity,
)
from helpers import deterministic_data_scenario

from smpkit.adjoint import AdjointPair, solve_first_adjoint
from smpkit.duality import (
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
from smpkit.errors import EnsembleMismatchError
from smpkit.forward import OpenLoop, TimeGrid, sample_brownian, simulate_controlled
from smpkit.maximum_principle import second_order_data
from smpkit.scenarios import build_preset, load_preset
from smpkit.second_order import lyapunov_oracle, solve_second_adjoint
from smpkit.spectral import OperatorSpec, make_dirichlet_laplacian


def _zero_pair(grid, n, n_paths, fingerprint):
    shape_y = (n_paths, grid.n_steps + 1, n)
    shape_Y = (n_paths, grid.n_steps, n)
    return AdjointPair(grid, np.zeros(shape_y), np.zeros(shape_Y), np.zeros(shape_Y), fingerprint)


def test_first_identity_zero_data_exact():
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 20)
    ens = sample_brownian(grid, 100, 1)
    pair = _zero_pair(grid, 2, 100, ens.fingerprint)
    report = verify_first_identity(pair, op, None, None, (0, np.zeros(2), None, None), ens)
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
    pair = solve_first_adjoint(scenario, traj, None, ens)
    rng = np.random.default_rng(0)
    for _ in range(5):
        test = random_first_test(op, ens, rng)
        report = verify_first_identity(pair, op, None, None, test, ens,
                                       bias_budget=0.5 * grid.dt)
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
    pair = solve_first_adjoint(scenario, traj, None, ens)
    j_star = 20
    probe = np.array([1.0])
    v1 = np.zeros((50, 1))
    v1[j_star] = probe
    report = verify_first_identity(pair, op, None, None, (0, np.zeros(1), v1, None), ens,
                                   bias_budget=1e-9)
    recovered = report.lhs / grid.dt
    # the isolated value is the regressed conditional mean at j_star
    y_star = (pair.y[:, j_star, 0] + grid.dt * pair.driver[:, j_star, 0]).mean()
    assert recovered == pytest.approx(y_star, abs=3 * report.stderr / grid.dt + 1e-6)
    assert abs(recovered - pair.y[:, j_star, 0].mean()) < 0.05  # same object up to O(dt)
    assert report.passed


def test_first_identity_bilinear_in_test_data():
    op = OperatorSpec(1, np.array([0.0]))
    scenario = deterministic_data_scenario(op, np.array([0.5]), np.array([1.0]), b_const=0.5)
    grid = TimeGrid(0.0, 1.0, 30)
    ens = sample_brownian(grid, 500, 7)
    traj = simulate_controlled(scenario, np.array([1.0]), OpenLoop(np.zeros((30, 1))), ens)
    pair = solve_first_adjoint(scenario, traj, None, ens)
    rng = np.random.default_rng(1)
    t_index, eta, v1, v2 = random_first_test(op, ens, rng)
    base = verify_first_identity(pair, op, None, None, (t_index, eta, v1, v2), ens)
    twice = verify_first_identity(pair, op, None, None, (t_index, 2 * eta, 2 * v1, 2 * v2), ens)
    assert twice.lhs == pytest.approx(2 * base.lhs, rel=1e-13)
    assert twice.rhs == pytest.approx(2 * base.rhs, rel=1e-13)


def test_first_identity_requires_same_ensemble():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 10)
    ens_a = sample_brownian(grid, 50, 1)
    ens_b = sample_brownian(grid, 50, 2)
    pair = _zero_pair(grid, 1, 50, ens_a.fingerprint)
    with pytest.raises(EnsembleMismatchError):
        verify_first_identity(pair, op, None, None, (0, np.zeros(1), None, None), ens_b)


def test_first_identity_leaves_single_path_pair_unchanged():
    # with one path a step slice of pair.y is contiguous, so the verifier
    # must not add the driver into it in place
    op = make_dirichlet_laplacian(2, 1.0)
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 1, 4)
    rng = np.random.default_rng(2)
    pair = AdjointPair(grid, rng.normal(size=(1, 11, 2)), rng.normal(size=(1, 10, 2)),
                       rng.normal(size=(1, 10, 2)), ens.fingerprint)
    y_before = pair.y.copy()
    test = random_first_test(op, ens, np.random.default_rng(3))
    first = verify_first_identity(pair, op, None, None, test, ens)
    np.testing.assert_array_equal(pair.y, y_before)
    second = verify_first_identity(pair, op, None, None, test, ens)
    assert (second.lhs, second.rhs) == (first.lhs, first.rhs)


# ----------------------------------------------------------------------
# second-order identity
# ----------------------------------------------------------------------

def test_second_identity_zero_data_exact():
    op = OperatorSpec(1, np.array([0.0]))
    grid = TimeGrid(0.0, 1.0, 10)
    ens = sample_brownian(grid, 100, 2)
    sa = solve_second_adjoint(op, None, None, None, np.zeros((1, 1)), ens)
    test = (0, np.zeros(1), np.zeros(1), None, None, None, None)
    report = verify_second_identity(sa, op, None, None, None, np.zeros((1, 1)), test, ens)
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
        test = (t_index, xi1, xi2, None, None, None, None)
        report = verify_second_identity(sa, op, J, K, F, P_T, test, ens,
                                        bias_budget=0.5 * grid.dt)
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
            test = random_second_test(op, ens, rng)
            report = verify_second_identity(sa, op, None, K, F, P_T, test, ens)
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


def _mixed_tuples(describe, op, ens, w, seed):
    """Eight described tuples with mixed start steps (0, N//2 and others);
    every other one is handed over materialized, so descriptions, (N, n)
    profiles and per-path (P, N, n) arrays share one stack."""
    N = ens.grid.n_steps
    starts = (0, N // 2, 3, 0, N // 2, 7, 1, N // 2 - 1)
    specs = [
        dataclasses.replace(describe(op, ens, np.random.default_rng([seed, i])), t_index=t)
        for i, t in enumerate(starts)
    ]
    return specs, [spec if i % 2 else spec.materialize(w) for i, spec in enumerate(specs)]


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
    pair = solve_first_adjoint(scenario, traj, None, ens)
    return scenario, grid, ens, traj, pair


def _check_second_equivalence(op, J, K, F, P_T, sa, ens, bias_budget, seed):
    w = ens.brownian_paths()
    specs, tests = _mixed_tuples(describe_second_test, op, ens, w, seed)
    stacked = verify_second_identities(sa, op, J, K, F, P_T, tests, ens,
                                       bias_budget=bias_budget)
    singles = [verify_second_identity(sa, op, J, K, F, P_T, t, ens, bias_budget=bias_budget)
               for t in tests]
    loops = [loop_second_identity(sa, op, J, K, F, P_T, spec.materialize(w), ens,
                                  bias_budget=bias_budget) for spec in specs]
    _assert_same_reports(stacked, singles, loops)


def test_stacked_first_identities_match_single_tuple_heat4():
    scenario, grid, ens, traj, pair = _heat4_setup()
    op = scenario.op
    w = ens.brownian_paths()
    budget = scenario.c_bias_first * grid.dt
    specs, tests = _mixed_tuples(describe_first_test, op, ens, w, 17)
    stacked = verify_first_identities(pair, op, None, None, tests, ens, bias_budget=budget)
    singles = [verify_first_identity(pair, op, None, None, t, ens, bias_budget=budget)
               for t in tests]
    loops = [loop_first_identity(pair, op, None, None, spec.materialize(w), ens,
                                 bias_budget=budget) for spec in specs]
    _assert_same_reports(stacked, singles, loops)


def test_stacked_second_identities_match_single_tuple_heat4_coefficient_mode():
    scenario, grid, ens, traj, pair = _heat4_setup()
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    sa = solve_second_adjoint(scenario.op, J, K, F, P_T, ens, feature_states=traj.states)
    assert sa.dense_P is None  # coefficient storage
    _check_second_equivalence(scenario.op, J, K, F, P_T, sa, ens,
                              scenario.c_bias_second * grid.dt, 29)


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
    assert sa.dense_P is not None
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
