import numpy as np
import pytest

from mindpd.errors import NumericalError
from mindpd.quadrature import (QuadratureSpec, integrate_continuous,
                               sum_discrete)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)


def test_polynomial_exact():
    # 128-point Gauss-Legendre is exact for degree <= 255
    val, err = integrate_continuous(lambda x: 7 * x ** 9 - x ** 3 + 2,
                                    -1.0, 3.0)
    exact = 7 * (3.0 ** 10 - 1.0) / 10 - (3.0 ** 4 - 1.0) / 4 + 2 * 4.0
    assert abs(val - exact) < 1e-10 * abs(exact)


def test_gaussian_mass():
    val, _ = integrate_continuous(
        lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi), -8.5, 8.5)
    assert abs(val - 1.0) < 1e-12


def test_breakpoints_help_peaked_integrand():
    # narrow bump far from the window center
    fn = lambda x: np.exp(-((x - 37.0) / 0.05) ** 2)
    val, _ = integrate_continuous(fn, 0.0, 40.0, breakpoints=(36.5, 37.5))
    exact = 0.05 * np.sqrt(np.pi)
    assert abs(val - exact) < 1e-10 * exact


def test_vector_valued_integrand():
    fn = lambda x: np.stack([np.ones_like(x), x, x * x], axis=1)
    val, _ = integrate_continuous(fn, 0.0, 2.0)
    assert np.allclose(val, [2.0, 2.0, 8.0 / 3.0], rtol=1e-12)


def test_nonconvergence_raises():
    spec = QuadratureSpec(max_subdivisions=2, rel_tol=1e-13, abs_tol=1e-14)
    with pytest.raises(NumericalError) as exc:
        integrate_continuous(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                             0.0, 1.0, spec)
    assert exc.value.error_estimate is not None


def test_discrete_sum_extends_tail():
    # geometric series 0.9^k sums to 10
    val, err = sum_discrete(lambda k: 0.9 ** k, 0, 5)
    assert abs(val - 10.0) < 1e-8


def test_discrete_sum_vector():
    val, _ = sum_discrete(
        lambda k: np.stack([0.5 ** k, 0.25 ** k], axis=1), 0, 4)
    assert np.allclose(val, [2.0, 4.0 / 3.0], atol=1e-10)
