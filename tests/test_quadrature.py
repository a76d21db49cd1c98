import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindpd.errors import NumericalError
from mindpd.quadrature import (DEFAULT_QUAD, MAX_CALL_NODES, QuadratureSpec,
                               integrate_continuous, sum_discrete)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=8)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=MAX_CALL_NODES + 1)
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


def test_discrete_sum_refuses_huge_window_without_calling_fn():
    calls = []
    with pytest.raises(NumericalError):
        sum_discrete(lambda k: calls.append(k) or np.ones_like(k), 0, 1e12)
    assert calls == []


# ------------------------------------------------ level-synchronous engine

def _recording(fn, log):
    def integrand(x):
        log.append(np.array(x))
        return fn(x)
    return integrand


def test_one_integrand_call_per_bisection_level():
    # a narrow bump with no breakpoint forces deep bisection of one panel;
    # the coarse pass is one call and every level after it one more
    lo, hi, nodes = 0.0, 40.0, DEFAULT_QUAD.nodes
    log = []
    fn = _recording(lambda x: np.exp(-((x - 37.0) / 0.05) ** 2), log)
    val, _ = integrate_continuous(fn, lo, hi)
    assert abs(val - 0.05 * np.sqrt(np.pi)) < 1e-10
    assert max(len(x) for x in log) <= MAX_CALL_NODES  # no level chunked
    x_ref = np.polynomial.legendre.leggauss(nodes)[0]
    widths = [np.ptp(pts.reshape(-1, nodes), axis=1) / np.ptp(x_ref)
              for pts in log]
    for w in widths:  # each call holds the panels of a single level
        assert np.allclose(w, w[0], rtol=1e-9)
    levels = int(round(np.log2((hi - lo) / min(w[0] for w in widths))))
    assert levels >= 5
    assert len(log) <= levels + 1


def test_no_call_exceeds_node_cap():
    spec = QuadratureSpec(nodes=16)
    breaks = np.linspace(-1.0, 2.0, 6002)[1:-1]
    log = []
    fn = _recording(lambda x: np.cos(3 * x) + x ** 2, log)
    val, _ = integrate_continuous(fn, -1.0, 2.0, spec, breakpoints=breaks)
    exact = (np.sin(6.0) - np.sin(-3.0)) / 3 + (8.0 + 1.0) / 3
    assert abs(val - exact) < 1e-12 * abs(exact)
    assert sum(len(x) for x in log) > 2 * MAX_CALL_NODES
    assert max(len(x) for x in log) <= MAX_CALL_NODES


@settings(max_examples=60, deadline=None)
@given(coefs=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=20),
       lo=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_polynomials_integrate_exactly(coefs, lo, width, cuts):
    # degree <= 20 in u = (x - lo) / width, kept >= 1 on the window so the
    # relative error is well defined; breakpoints come in random order
    hi = lo + width
    c = np.array([1.0 + sum(abs(v) for v in coefs)] + list(coefs))
    fn = lambda x: np.polynomial.polynomial.polyval((x - lo) / width, c)
    exact = width * float(np.sum(c / np.arange(1, len(c) + 1)))
    val, _ = integrate_continuous(fn, lo, hi,
                                  breakpoints=[lo + u * width for u in cuts])
    assert abs(val - exact) <= 1e-10 * exact


def test_vector_columns_match_scalar_integrations():
    cols = [lambda x: np.exp(-x * x),
            lambda x: 1.0 / (1.0 + x * x),
            lambda x: np.exp(-((x - 2.0) / 0.1) ** 2),
            lambda x: x * x * np.exp(-np.abs(x))]
    lo, hi, breaks = -12.0, 12.0, (0.0, 1.5, 2.5)
    vec, _ = integrate_continuous(
        lambda x: np.stack([f(x) for f in cols], axis=1), lo, hi,
        breakpoints=breaks)
    for j, f in enumerate(cols):
        ref, _ = integrate_continuous(f, lo, hi, breakpoints=breaks)
        assert abs(vec[j] - ref) <= 1e-12 * abs(ref)
