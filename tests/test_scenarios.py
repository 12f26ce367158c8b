import dataclasses
import os

import numpy as np
import pytest

from smpkit.errors import ConfigError, DomainError, LatticeEscapeError
from smpkit.forward import TimeGrid, sample_brownian, simulate_controlled
from smpkit.scenarios import (
    LqParams,
    MatrixPreset,
    build_preset,
    dp_oracle_scalar,
    load_preset,
    make_heat_scenario,
    make_lq_scalar,
    parse_preset_text,
    preset_dir,
    riccati_oracle,
)
from smpkit.spectral import OperatorSpec


def test_lq_scalar_definition():
    scenario, params = make_lq_scalar()
    x = np.array([[2.0], [0.0]])
    u = np.array([[1.0], [3.0]])
    np.testing.assert_array_equal(scenario.drift(0.0, x, u), u)
    assert scenario.running_cost(0.0, np.array([[2.0]]), np.array([[1.0]]))[0] == 2.5
    hess = scenario.hess_terminal(np.array([[1.3]]))
    np.testing.assert_array_equal(hess, np.ones((1, 1, 1)))


def test_riccati_scalar_constant_solution():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    bundle = riccati_oracle(params, grid)
    np.testing.assert_allclose(bundle.P[:, 0, 0], 1.0, atol=1e-10)
    np.testing.assert_allclose(bundle.gains[:, 0, 0], 1.0, atol=1e-10)
    np.testing.assert_allclose(bundle.q, 0.0, atol=1e-12)
    # value at x0 = 1: 0.5 * 1 + sigma^2 T / 2
    assert bundle.value_at(1.0) == pytest.approx(0.5 + 0.5 * 0.09, abs=1e-9)


def test_riccati_zero_cost():
    params = LqParams(
        A=np.zeros((1, 1)), B=np.eye(1), C=np.zeros((1, 1)), D=np.zeros((1, 1)),
        sigma=np.zeros(1), M=np.zeros((1, 1)), N=np.eye(1), G=np.zeros((1, 1)),
    )
    bundle = riccati_oracle(params, TimeGrid(0.0, 1.0, 50))
    np.testing.assert_allclose(bundle.gains, 0.0, atol=1e-12)
    assert bundle.value_at(3.0) == pytest.approx(0.0, abs=1e-12)


def test_riccati_singular_gain_breaks_cleanly():
    from smpkit.errors import OracleBreakdownError

    params = LqParams(
        A=np.zeros((1, 1)), B=np.eye(1), C=np.zeros((1, 1)), D=np.zeros((1, 1)),
        sigma=np.zeros(1), M=np.eye(1), N=np.zeros((1, 1)), G=np.eye(1),
    )
    with pytest.raises(OracleBreakdownError):
        riccati_oracle(params, TimeGrid(0.0, 1.0, 10))


def test_riccati_value_quadratic_scaling():
    scenario, params = make_lq_scalar(sigma=0.0)
    bundle = riccati_oracle(params, TimeGrid(0.0, 1.0, 100))
    assert bundle.value_at(2.0) == pytest.approx(4.0 * bundle.value_at(1.0), rel=1e-9)


def test_heat_scenario_pure_decay_contracts():
    scenario, _ = make_heat_scenario()
    grid = TimeGrid(0.0, 1.0, 100)
    ens = sample_brownian(grid, 32, 5)
    from smpkit.forward import OpenLoop

    beta0, _ = make_heat_scenario(beta=0.0)
    traj = simulate_controlled(beta0, beta0.x0, OpenLoop(np.zeros((100, 2))), ens)
    norms = np.linalg.norm(traj.states, axis=-1)
    assert np.all(norms[:, -1] <= norms[:, 0] + 1e-12)


def test_heat_diffusion_control_jacobian():
    scenario, _ = make_heat_scenario(diffusion_gain=0.2)
    x = np.random.default_rng(0).standard_normal((5, 4))
    u = np.random.default_rng(1).standard_normal((5, 2))
    jac = scenario.jacobian("b", "u", 0.3, x, u)
    assert jac.shape == (4, 2)  # one matrix, the same on every path
    fd = np.empty((5, 4, 2))
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd[:, :, k] = (scenario.diffusion(0.3, x, u + e) - scenario.diffusion(0.3, x, u - e)) / (2 * h)
    np.testing.assert_allclose(np.broadcast_to(jac, fd.shape), fd, atol=1e-8)


def test_heat_lipschitz_spot_check():
    # a and b are Lipschitz in x with constant max(1, beta, drift_gain,
    # diffusion_gain) = 1 at the builder defaults
    lipschitz = 1.0
    scenario, _ = make_heat_scenario()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x1 = rng.standard_normal((1, 4))
        x2 = rng.standard_normal((1, 4))
        u = rng.uniform(-1, 1, (1, 2))
        gap_a = np.linalg.norm(scenario.drift(0.1, x1, u) - scenario.drift(0.1, x2, u))
        gap_b = np.linalg.norm(scenario.diffusion(0.1, x1, u) - scenario.diffusion(0.1, x2, u))
        assert gap_a + gap_b <= 2 * lipschitz * np.linalg.norm(x1 - x2) + 1e-12


def test_preset_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for scenario in (make_lq_scalar()[0], make_heat_scenario()[0]):
        n, m = scenario.n_modes, scenario.control_dim
        x = rng.standard_normal((100, n))
        u = rng.uniform(-1, 1, (100, m))
        pairs = [
            (scenario.jacobian("a", "x", 0.2, x, u), _fd_jac(lambda z: scenario.drift(0.2, z, u), x)),
            (scenario.jacobian("b", "x", 0.2, x, u), _fd_jac(lambda z: scenario.diffusion(0.2, z, u), x)),
            (scenario.grad_x_running(0.2, x, u), _fd_grad(lambda z: scenario.running_cost(0.2, z, u), x)),
            (scenario.grad_terminal(x), _fd_grad(scenario.terminal_cost, x)),
        ]
        for analytic, fd in pairs:
            scale = 1.0 + np.abs(fd)
            assert np.max(np.abs(analytic - fd) / scale) < 1e-6


def _fd_grad(fn, x):
    h = 1e-6
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[i] = h
        out[:, i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


def _fd_jac(fn, x):
    h = 1e-6
    p, n = x.shape
    out = np.empty((p, n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        out[:, :, j] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


# ----------------------------------------------------------------------
# dynamic-programming oracle
# ----------------------------------------------------------------------

def test_dp_zero_cost():
    scenario, _ = make_lq_scalar()
    free = make_lq_scalar()[0]
    free.running_cost = lambda t, x, u: np.zeros(x.shape[0])
    free.terminal_cost = lambda x: np.zeros(x.shape[0])
    grid = TimeGrid(0.0, 1.0, 50)
    bundle = dp_oracle_scalar(free, np.linspace(-2, 3, 101), np.linspace(-1, 1, 11), grid)
    np.testing.assert_allclose(bundle.values, 0.0, atol=1e-12)


def test_dp_matches_riccati_within_two_percent():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    dp = dp_oracle_scalar(scenario, np.linspace(-2.0, 3.0, 401), np.linspace(-3.0, 3.0, 41), grid)
    rc = riccati_oracle(params, grid)
    v_dp = dp.value_at(1.0)
    v_rc = rc.value_at(1.0)
    assert abs(v_dp - v_rc) / v_rc < 0.02


def test_dp_policy_near_riccati_feedback():
    scenario, params = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, 200)
    u_grid = np.linspace(-3.0, 3.0, 41)
    dp = dp_oracle_scalar(scenario, np.linspace(-2.0, 3.0, 401), u_grid, grid)
    du = u_grid[1] - u_grid[0]
    assert abs(dp.policy_at(1.0) - (-1.0)) <= du + 1e-12


def test_dp_lattice_escape_guard():
    scenario, _ = make_lq_scalar(sigma=2.0)
    grid = TimeGrid(0.0, 1.0, 50)
    with pytest.raises(LatticeEscapeError):
        dp_oracle_scalar(scenario, np.linspace(-0.3, 0.3, 31), np.linspace(-1, 1, 5), grid)


@pytest.mark.parametrize("lattice", [np.linspace(0.0, 1.0, 0), np.array([1.0]),
                                     np.linspace(3.0, -2.0, 401), np.array([-1.0, 0.0, 0.0, 1.0]),
                                     np.array([np.nan, 0.0, 1.0]), np.array([-1.0, 0.0, np.inf]),
                                     np.zeros((2, 3))])
def test_dp_rejects_a_lattice_that_is_not_finite_increasing_nodes(lattice):
    # before, an empty lattice raised IndexError, a decreasing or NaN one
    # ValueError, and one node escaped the lattice
    scenario, _ = make_lq_scalar()
    with pytest.raises(DomainError, match="state lattice"):
        dp_oracle_scalar(scenario, lattice, np.linspace(-3.0, 3.0, 41), TimeGrid(0.0, 1.0, 20))


@pytest.mark.parametrize("u_grid", [[], [np.nan], [-1.0, np.inf], np.zeros((3, 2))])
def test_dp_rejects_an_empty_or_nonfinite_control_grid(u_grid):
    # an empty grid ended in numpy's reshape ValueError, a NaN one returned
    # a NaN value without an error, and a 2-D one ended in a numpy
    # broadcasting ValueError
    scenario, _ = make_lq_scalar()
    with pytest.raises(DomainError, match="control grid"):
        dp_oracle_scalar(scenario, np.linspace(-2.0, 3.0, 101), u_grid, TimeGrid(0.0, 1.0, 20))


# ----------------------------------------------------------------------
# preset files
# ----------------------------------------------------------------------

def test_preset_grammar():
    cfg = parse_preset_text("kind = lq_scalar\n# comment\nx0 = 1.0, 2.0\nT = 1.0\nn = 4\n")
    assert cfg["kind"] == "lq_scalar"
    np.testing.assert_array_equal(cfg["x0"], [1.0, 2.0])
    assert cfg["T"] == 1.0 and cfg["n"] == 4
    with pytest.raises(DomainError):
        parse_preset_text("not a key value line")


def test_shipped_presets_load_and_build():
    for name in ("lq_scalar", "heat4"):
        cfg = load_preset(name)
        scenario, params = build_preset(cfg)
        assert scenario.x0 is not None
    mat = load_preset("mat_scalar")
    assert mat["kappa"] == 0.5


@pytest.mark.parametrize("name", ["lq_scalar", "heat4", "mat_scalar"])
def test_shipped_preset_values_reach_built_problem(name):
    cfg = load_preset(name)
    problem, lq = build_preset(cfg)
    shared = [key for key in cfg if key != "kind" and hasattr(problem, key)]
    assert {"T", "c_bias_second"} <= set(shared)
    for key in shared:
        np.testing.assert_array_equal(getattr(problem, key), cfg[key], err_msg=key)
    assert (lq is None) == isinstance(problem, MatrixPreset)


def test_calibrated_bias_constants_reach_built_problem():
    # heat4's second-order budget is 4.0, not the builder default
    heat, _ = build_preset(load_preset("heat4"))
    assert (heat.c_bias_first, heat.c_bias_second) == (0.2, 4.0)
    mat, _ = build_preset(load_preset("mat_scalar"))
    op, J, K, F, P_T = mat.second_order_data()
    assert J is None and (K[0, 0], F[0, 0], P_T[0, 0]) == (0.5, 0.0, 1.0)
    assert mat.c_bias_second == 0.5 and op.eigenvalues[0] == 0.0


@pytest.mark.parametrize("text, key", [
    ("kind = heat\nn_modes = 0\n", "n_modes"),
    ("kind = heat\ncontrol_dim = 1.5\n", "control_dim"),
    ("kind = lq_scalar\nsigma = nan\n", "sigma"),
    ("kind = matrix_scalar\nkappa = inf\n", "kappa"),
    ("kind = matrix_scalar\nT = -1\n", "T"),
    ("kind = lq_scalar\nx0 = 1.0, abc\n", "x0"),
    ("kind = heat\nn_modes = 1\ncontrol_dim = 2\n", "n_modes"),
    ("sigma = 0.3\n", "kind"),
    ("kind = heat\nc_bias_second = -1.0\n", "c_bias_second"),
    ("kind = lq_scalar\nc_bias_first = -0.2\n", "c_bias_first"),
    ("kind = matrix_scalar\nc_bias_second = -0.5\n", "c_bias_second"),
], ids=["int_below_1", "int_not_integer", "nan", "inf", "negative_T", "bad_list",
        "modes_below_controls", "no_kind", "negative_bias_heat", "negative_bias_lq",
        "negative_bias_matrix"])
def test_build_preset_rejects_bad_values(text, key):
    with pytest.raises(ConfigError, match=key):
        build_preset(parse_preset_text(text))


def test_preset_dir_override(tmp_path, monkeypatch):
    p = tmp_path / "custom.preset"
    p.write_text("kind = lq_scalar\nsigma = 0.1\n")
    monkeypatch.setenv("SMPKIT_PRESET_DIR", str(tmp_path))
    assert preset_dir() == str(tmp_path)
    cfg = load_preset("custom")
    assert cfg["sigma"] == 0.1


def test_unknown_preset_raises():
    with pytest.raises(FileNotFoundError):
        load_preset("nope_not_here")


def test_unreadable_preset_is_a_config_error_naming_the_path(tmp_path):
    binary = tmp_path / "binary.preset"
    binary.write_bytes(b"kind = lq_scalar\nsigma = 0.3 \xff\n")
    for path in (str(tmp_path), str(binary)):
        with pytest.raises(ConfigError, match=f"cannot read preset {path}"):
            load_preset(path)


def test_dp_applies_generator_flow():
    # the lattice transition must carry the exact flow exp(mu dt), as the
    # simulator does; without it the value stays at the mu = 0 one (0.55)
    base, params = make_lq_scalar()
    mu = -1.0
    scenario = dataclasses.replace(base, op=OperatorSpec(1, np.array([mu])))
    params = dataclasses.replace(params, A=np.array([[mu]]))
    grid = TimeGrid(0.0, 1.0, 200)
    dp = dp_oracle_scalar(scenario, np.linspace(-2.0, 3.0, 401), np.linspace(-3.0, 3.0, 41), grid)
    v_dp = dp.value_at(1.0)
    v_rc = riccati_oracle(params, grid).value_at(1.0)
    assert v_rc == pytest.approx(0.2482, abs=5e-4)
    assert abs(v_dp - v_rc) / v_rc < 0.02
