import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindpd.errors import DomainError, IngestionError
from mindpd.families import (INTEGRAL_KINDS, LOG_FLOOR, PLAIN_POWER,
                             SCORE_POWER, Mixture, Normal, Support,
                             from_working, get_family, integral_term,
                             integral_terms, to_working, working_jacobian)
from mindpd.quadrature import QuadratureSpec

from conftest import family_grid, fd_gradient, random_feasible


# ---------------------------------------------------------------- densities

def test_standard_normal_mode(normal):
    assert normal.pdf(0.0, np.array([0.0, 1.0])) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_exponential_at_zero(exponential):
    for lam in (1.0, 2.5):
        assert exponential.pdf(0.0, np.array([lam])) == pytest.approx(lam)


def test_normal_logpdf_frozen_value(normal):
    # independently computed scalar formula before the build
    assert normal.logpdf(3.0, np.array([1.0, 2.0])) == pytest.approx(
        -2.112085713764618, abs=1e-12)
    assert normal.pdf(3.0, np.array([1.0, 2.0])) == pytest.approx(
        0.12098536225957167, abs=1e-14)


def test_log_floor(normal):
    assert normal.logpdf(1e6, np.array([0.0, 1.0])) == LOG_FLOOR


def test_outside_support_density_zero(exponential, gpd):
    assert exponential.pdf(-0.5, np.array([1.0])) == 0.0
    assert exponential.logpdf(-0.5, np.array([1.0])) == -np.inf
    assert gpd.pdf(np.array([-1.0, 1.0]), np.array([0.2, 1.0]))[0] == 0.0


def test_outside_support_score_raises(exponential, poisson):
    with pytest.raises(DomainError):
        exponential.score(-1.0, np.array([1.0]))
    with pytest.raises(DomainError):
        poisson.pdf(2.5, np.array([3.0]))
    with pytest.raises(DomainError):
        poisson.info(-1.0, np.array([3.0]))


def test_infeasible_theta(normal, gpd):
    with pytest.raises(DomainError):
        normal.pdf(0.0, np.array([0.0, -1.0]))
    with pytest.raises(DomainError):
        normal.pdf(0.0, np.array([0.0, 0.0]))  # boundary
    with pytest.raises(DomainError):
        gpd.score(1.0, np.array([0.0, 1.0]))   # shape on the boundary


def test_discrete_ingestion(poisson):
    with pytest.raises(IngestionError):
        poisson.validate_data(np.array([1.0, 2.5]))
    with pytest.raises(IngestionError):
        poisson.validate_data(np.array([1.0, -2.0]))
    out = poisson.validate_data(np.array([0.0, 4.0]))
    assert out.shape == (2,)


# ---------------------------------------------------------------- scores

def test_score_examples(normal, exponential):
    s = normal.score(0.0, np.array([0.0, 1.0]))
    assert np.allclose(s, [0.0, -1.0], atol=1e-14)
    s = exponential.score(1.0, np.array([2.0]))
    assert s[0] == pytest.approx(-0.5)


@pytest.mark.parametrize("fam,thetas", family_grid(),
                         ids=lambda v: getattr(v, "name", ""))
def test_score_matches_fd_of_logpdf(fam, thetas):
    rng = np.random.default_rng(42)
    for theta in thetas:
        xs = fam.sample(theta, 40, rng)
        s = fam.score(xs, theta)
        fd = np.stack([fd_gradient(lambda t: fam.logpdf(x, t), theta)
                       for x in xs])
        rel = np.abs(s - fd) / np.maximum(np.abs(fd), 1.0)
        assert np.max(rel) < 1e-6


@pytest.mark.parametrize("fam,thetas", family_grid(),
                         ids=lambda v: getattr(v, "name", ""))
def test_info_matches_fd_of_score(fam, thetas):
    rng = np.random.default_rng(43)
    for theta in thetas:
        xs = fam.sample(theta, 25, rng)
        info = fam.info(xs, theta)
        for x, mat in zip(xs, info):
            fd = fd_gradient(lambda t: fam.score(x, t), theta)
            rel = np.abs(-fd - mat) / np.maximum(np.abs(mat), 1.0)
            assert np.max(rel) < 1e-5


def test_info_symmetry_random():
    rng = np.random.default_rng(44)
    for fam, _ in family_grid():
        for _ in range(200):
            theta = random_feasible(fam, rng)
            x = fam.sample(theta, 1, rng)
            mat = fam.info(x, theta)[0]
            assert np.array_equal(mat, mat.T)


# ---------------------------------------------------------------- integrals

def test_density_integrates_to_one_random_thetas():
    rng = np.random.default_rng(7)
    spec = QuadratureSpec()
    for fam, _ in family_grid():
        for _ in range(100):
            theta = random_feasible(fam, rng)
            mass = integral_term(fam, theta, 0.0, PLAIN_POWER, spec,
                                 method="quadrature")
            assert abs(mass - 1.0) < spec.abs_tol * 100 + 1e-9


def test_identifiability_on_grids():
    rng = np.random.default_rng(8)
    for fam, thetas in family_grid():
        for i, t1 in enumerate(thetas):
            for t2 in thetas[i + 1:]:
                lo, hi = fam.window(t1, 1e-6)
                xs = (np.arange(0, max(hi, 20))
                      if fam.support.is_discrete
                      else np.linspace(lo, hi, 801))
                gap = np.max(np.abs(fam.pdf(xs, t1) - fam.pdf(xs, t2)))
                assert gap > 1e-4


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_closed_forms_match_quadrature(alpha):
    for fam, thetas in family_grid():
        for theta in thetas:
            for kind in INTEGRAL_KINDS:
                if kind not in fam.closed_forms:
                    continue
                c = np.asarray(integral_term(fam, theta, alpha, kind,
                                             method="closed"))
                q = np.asarray(integral_term(fam, theta, alpha, kind,
                                             method="quadrature"))
                assert np.allclose(c, q, rtol=1e-8, atol=1e-12), \
                    (fam.name, kind, alpha)


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_fused_terms_match_single_kinds(alpha, gpd, poisson):
    # one vector-valued pass over all four kinds against one pass per kind
    for fam, theta in ((gpd, np.array([0.2, 1.5])),
                       (gpd, np.array([0.45, 0.6])),
                       (poisson, np.array([3.0])),
                       (poisson, np.array([11.0]))):
        fused = integral_terms(fam, theta, alpha, INTEGRAL_KINDS,
                               method="quadrature")
        for kind, value in zip(INTEGRAL_KINDS, fused):
            single = np.asarray(integral_term(fam, theta, alpha, kind,
                                              method="quadrature"))
            assert np.shape(value) == single.shape
            rel = np.max(np.abs(value - single)) / np.max(np.abs(single))
            assert rel < 1e-12, (fam.name, kind)


def test_plain_power_values(normal):
    # any family at alpha=0 integrates to 1; frozen Gaussian value at alpha=1
    assert integral_term(normal, np.array([0.0, 1.0]), 0.0,
                         PLAIN_POWER) == pytest.approx(1.0, abs=1e-10)
    assert integral_term(normal, np.array([0.0, 1.0]), 1.0,
                         PLAIN_POWER) == pytest.approx(
        0.28209479177387814, abs=1e-12)


def test_score_power_zero_at_alpha_zero():
    for fam, thetas in family_grid():
        v = integral_term(fam, thetas[0], 0.0, SCORE_POWER,
                          method="quadrature")
        assert np.max(np.abs(v)) < 1e-8


def test_plain_power_continuous_in_alpha(normal):
    theta = np.array([0.3, 1.4])
    alphas = [0.5, 0.5 + 1e-3, 0.5 + 1e-5, 0.5 + 1e-7]
    base = integral_term(normal, theta, 0.5, PLAIN_POWER,
                         method="quadrature")
    gaps = [abs(integral_term(normal, theta, a, PLAIN_POWER,
                              method="quadrature") - base)
            for a in alphas[1:]]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_integral_kind_validation(normal):
    with pytest.raises(ValueError):
        integral_term(normal, np.array([0.0, 1.0]), 0.5, "cubed")
    with pytest.raises(DomainError):
        integral_term(normal, np.array([0.0, 1.0]), -0.5, PLAIN_POWER)


# ---------------------------------------------------------------- transforms

def test_working_round_trip():
    rng = np.random.default_rng(9)
    for fam, _ in family_grid():
        for _ in range(20):
            theta = random_feasible(fam, rng)
            z = to_working(fam, theta)
            assert np.allclose(from_working(fam, z), theta, rtol=1e-14)


def test_working_jacobian_matches_fd():
    for fam, thetas in family_grid():
        theta = thetas[0]
        z = to_working(fam, theta)
        jac = working_jacobian(fam, theta)
        fd = fd_gradient(lambda zz: from_working(fam, zz), z)
        assert np.allclose(np.diag(fd), jac, rtol=1e-7)


# ---------------------------------------------------------------- support

def test_support_validation():
    with pytest.raises(ValueError):
        Support("circle")
    with pytest.raises(ValueError):
        Support("half_line", lo=2.0, hi=1.0)
    s = Support("nonneg_int")
    assert s.is_discrete
    assert not Support("real_line").is_discrete


def test_catalog_lookup():
    assert get_family("normal").name == "normal"
    assert get_family("normal_loc", sigma=2.0).sigma == 2.0
    with pytest.raises(DomainError):
        get_family("generated_pareto")


# ---------------------------------------------------------------- mixtures

def test_mixture_validation(normal, exponential):
    with pytest.raises(DomainError):
        Mixture([(normal, np.array([0.0, 1.0]), 0.5),
                 (normal, np.array([1.0, 1.0]), 0.6)])
    with pytest.raises(DomainError):
        Mixture([(normal, np.array([0.0, 1.0]), 0.5),
                 (exponential, np.array([1.0]), 0.5)])
    with pytest.raises(DomainError):
        Mixture([])


def test_mixture_pdf_is_weighted_sum(normal):
    mix = Mixture([(normal, np.array([0.0, 1.0]), 0.75),
                   (normal, np.array([4.0, 2.0]), 0.25)])
    xs = np.linspace(-3, 8, 21)
    expect = (0.75 * normal.pdf(xs, np.array([0.0, 1.0]))
              + 0.25 * normal.pdf(xs, np.array([4.0, 2.0])))
    assert np.allclose(mix.pdf(xs), expect, rtol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mixture_sampling_deterministic(seed):
    nm = Normal()
    mix = Mixture([(nm, np.array([0.0, 1.0]), 0.9),
                   (nm, np.array([10.0, 1.0]), 0.1)])
    a = mix.sample(64, np.random.Generator(np.random.Philox(key=seed)))
    b = mix.sample(64, np.random.Generator(np.random.Philox(key=seed)))
    assert np.array_equal(a, b)


def test_gpd_quantile_inverts_cdf(gpd):
    theta = np.array([0.3, 2.0])
    qs = np.array([0.1, 0.5, 0.9, 0.999])
    xs = gpd.quantile(qs, theta)
    # CDF of the heavy-tail GPD: 1 - (1 + xi x / beta)^(-1/xi)
    cdf = 1 - (1 + theta[0] * xs / theta[1]) ** (-1 / theta[0])
    assert np.allclose(cdf, qs, rtol=1e-12)
