import numpy as np
import pytest

from smpkit.errors import DimensionError, DomainError
from smpkit.spectral import OperatorSpec, embed, make_dirichlet_laplacian, project

from spectral_reference import SingularResolventError, semigroup_apply, yosida_generator


def test_dirichlet_eigenvalues():
    op = make_dirichlet_laplacian(1, 1.0)
    assert op.eigenvalues[0] == pytest.approx(-np.pi**2, rel=1e-12)

    op3 = make_dirichlet_laplacian(3, 1.0)
    expected = -np.pi**2 * np.array([1.0, 4.0, 9.0])
    np.testing.assert_allclose(op3.eigenvalues, expected, rtol=1e-12)
    assert np.all(np.diff(op3.eigenvalues) < 0)

    op_wide = make_dirichlet_laplacian(2, 2.0)
    assert op_wide.eigenvalues[0] == pytest.approx(-((np.pi / 2) ** 2), rel=1e-12)


def test_dirichlet_rejects_bad_arguments():
    with pytest.raises(DomainError):
        make_dirichlet_laplacian(0, 1.0)
    with pytest.raises(DomainError):
        make_dirichlet_laplacian(3, 0.0)
    with pytest.raises(DomainError):
        make_dirichlet_laplacian(3, -1.0)


def test_operator_spec_validation():
    with pytest.raises(DimensionError):
        OperatorSpec(2, np.array([1.0]))
    with pytest.raises(DomainError):
        OperatorSpec(1, np.array([np.inf]))


def test_semigroup_identity_at_zero():
    op = make_dirichlet_laplacian(3, 1.0)
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(semigroup_apply(op, 0.0, v), v)


def test_semigroup_scalar_value():
    op = make_dirichlet_laplacian(1, 1.0)
    out = semigroup_apply(op, 0.1, np.array([1.0]))
    assert out[0] == pytest.approx(np.exp(-np.pi**2 / 10), rel=1e-12)
    assert out[0] == pytest.approx(0.3727078, abs=5e-7)


def test_semigroup_zero_vector_and_errors():
    op = make_dirichlet_laplacian(2, 1.0)
    np.testing.assert_array_equal(semigroup_apply(op, 0.3, np.zeros(2)), np.zeros(2))
    with pytest.raises(DomainError):
        semigroup_apply(op, -0.1, np.zeros(2))
    with pytest.raises(DimensionError):
        semigroup_apply(op, 0.1, np.zeros(3))


def test_semigroup_law():
    op = make_dirichlet_laplacian(4, 1.3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(4)
        dt1, dt2 = rng.uniform(0, 0.5, size=2)
        once = semigroup_apply(op, dt1 + dt2, v)
        twice = semigroup_apply(op, dt1, semigroup_apply(op, dt2, v))
        np.testing.assert_allclose(once, twice, rtol=1e-12)


def test_semigroup_contraction():
    op = make_dirichlet_laplacian(5, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(5)
        dt = rng.uniform(0, 2.0)
        assert np.linalg.norm(semigroup_apply(op, dt, v)) <= np.linalg.norm(v) + 1e-15


def test_yosida_scalar_value():
    op = make_dirichlet_laplacian(1, 1.0)
    approx = yosida_generator(op, 100.0)
    mu = -np.pi**2
    assert approx.eigenvalues[0] == pytest.approx(100 * mu / (100 - mu), rel=1e-12)
    assert approx.eigenvalues[0] == pytest.approx(-8.9830, abs=5e-5)


def test_yosida_fixed_point_at_zero():
    op = OperatorSpec(1, np.array([0.0]))
    for lam in (0.5, 10.0, 1e6):
        assert yosida_generator(op, lam).eigenvalues[0] == 0.0


def test_yosida_large_lambda_limit():
    op = make_dirichlet_laplacian(1, 1.0)
    approx = yosida_generator(op, 1e6)
    assert abs(approx.eigenvalues[0] + np.pi**2) / np.pi**2 < 1e-4


def test_yosida_convergence_bound():
    op = make_dirichlet_laplacian(4, 1.0)
    for lam in (1e2, 1e4, 1e6):
        approx = yosida_generator(op, lam)
        for mu, mu_lam in zip(op.eigenvalues, approx.eigenvalues):
            assert abs(mu_lam - mu) <= mu**2 / (lam - mu) + 1e-12


def test_yosida_singular_resolvent():
    op = OperatorSpec(2, np.array([-1.0, -4.0]))
    with pytest.raises(SingularResolventError):
        yosida_generator(op, -4.0)


def test_project_and_embed():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(project(v, 3), v)
    np.testing.assert_array_equal(project(v, 1), [1.0])
    np.testing.assert_array_equal(embed(project(v, 2), 3), [1.0, 2.0, 0.0])
    with pytest.raises(DomainError):
        project(v, 4)
    with pytest.raises(DomainError):
        embed(v, 2)


def test_projection_contraction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(6)
        m = rng.integers(1, 7)
        assert np.linalg.norm(project(v, m)) <= np.linalg.norm(v) + 1e-15

