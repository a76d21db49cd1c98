import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindpd.divergence import (DpdConfig, criterion, criterion_kernel,
                               dpd_divergence, objective, objective_gradient,
                               objective_hessian,
                               objective_value_and_gradient)
from mindpd.errors import DomainError, IngestionError
from mindpd.families import (INTEGRAL_KINDS, PLAIN_POWER, Mixture, Normal,
                             integral_term, model_density)

from conftest import OBJ10, family_grid, fd_gradient, random_feasible

STD = np.array([0.0, 1.0])
SHIFT = np.array([1.0, 1.0])


def test_config_rejects_negative_alpha():
    with pytest.raises(DomainError):
        DpdConfig(alpha=-0.1)


def test_sample_validates(normal, poisson):
    data = normal.validate_data([0.0, 1.0])
    assert data.shape == (2,)
    with pytest.raises(IngestionError):
        poisson.validate_data(np.array([1.5]))
    with pytest.raises(IngestionError):
        normal.validate_data(np.array([np.nan]))
    with pytest.raises(IngestionError):
        objective(poisson, np.array([1.5]), np.array([2.0]),
                  DpdConfig(alpha=0.5))


# ------------------------------------------------------------- divergence

@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_divergence_zero_at_same_point(normal, alpha):
    g = model_density(normal, STD)
    assert dpd_divergence(g, normal, STD,
                          DpdConfig(alpha=alpha)) == pytest.approx(0.0,
                                                                   abs=1e-10)


def test_divergence_alpha_one_is_l2(normal):
    # frozen closed form (1/sqrt(pi))(1 - e^{-1/4}) cross-checked by an
    # independent quadrature oracle before the build
    g = model_density(normal, STD)
    d1 = dpd_divergence(g, normal, SHIFT, DpdConfig(alpha=1.0))
    assert d1 == pytest.approx(0.12479829408003389, abs=1e-10)
    # second way: direct L2 integral on a dense trapezoid grid
    xs = np.linspace(-10, 11, 400001)
    gv = g.pdf(xs)
    fv = normal.pdf(xs, SHIFT)
    l2 = np.trapezoid((gv - fv) ** 2, xs)
    assert d1 == pytest.approx(l2, abs=1e-9)


def test_divergence_alpha_zero_is_kl(normal):
    g = model_density(normal, STD)
    assert dpd_divergence(g, normal, SHIFT,
                          DpdConfig(alpha=0.0)) == pytest.approx(0.5,
                                                                 abs=1e-10)


def test_divergence_approaches_kl(normal):
    g = model_density(normal, STD)
    kl = dpd_divergence(g, normal, SHIFT, DpdConfig(alpha=0.0))
    gaps = [abs(dpd_divergence(g, normal, SHIFT, DpdConfig(alpha=a)) - kl)
            for a in (1e-2, 1e-3, 1e-4)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_divergence_nonnegative_random():
    rng = np.random.default_rng(12)
    for fam, _ in family_grid():
        for _ in range(8):
            tg = random_feasible(fam, rng)
            tf = random_feasible(fam, rng)
            alpha = float(rng.uniform(0, 1.2))
            d = dpd_divergence(model_density(fam, tg), fam, tf,
                               DpdConfig(alpha=alpha))
            assert d >= 0.0
            if np.max(np.abs(tg - tf)) > 0.05:
                assert d > 0.0  # identifiability


def test_divergence_support_mismatch(normal, exponential):
    g = model_density(exponential, np.array([1.0]))
    with pytest.raises(DomainError):
        dpd_divergence(g, normal, STD, DpdConfig(alpha=0.5))


def test_divergence_accepts_mixture_g(normal):
    g = Mixture([(normal, STD, 0.9), (normal, np.array([10.0, 1.0]), 0.1)])
    d = dpd_divergence(g, normal, STD, DpdConfig(alpha=0.5))
    assert d > 0.0


# ------------------------------------------------------------- criterion

def test_criterion_frozen_normal(normal):
    val = criterion(normal, 0.0, STD, DpdConfig(alpha=1.0))
    assert val == pytest.approx(0.5157897690289872, abs=1e-12)


def test_criterion_exponential_symbolic(exponential):
    # (1 + 1/1) f(x) - integral of f^2 = 2 e^{-x} - 1/2 at rate 1
    cfg = DpdConfig(alpha=1.0)
    for x in (0.0, 0.7, 3.1):
        val = criterion(exponential, x, np.array([1.0]), cfg)
        assert val == pytest.approx(2 * math.exp(-x) - 0.5, abs=1e-12)


def test_criterion_orders_like_divergence(normal):
    # sample average of m under the generating density ranks parameter
    # points the same way as the negated divergence
    rng = np.random.default_rng(3)
    data = normal.sample(STD, 40000, rng)
    cfg = DpdConfig(alpha=0.5)
    g = model_density(normal, STD)
    t1, t2 = np.array([0.4, 1.1]), np.array([1.5, 0.8])
    m1 = float(np.mean(criterion(normal, data, t1, cfg)))
    m2 = float(np.mean(criterion(normal, data, t2, cfg)))
    d1 = dpd_divergence(g, normal, t1, cfg)
    d2 = dpd_divergence(g, normal, t2, cfg)
    assert (m1 > m2) == (d1 < d2)


# ------------------------------------------------------------- objective

def test_objective_single_point_equals_criterion(normal):
    cfg = DpdConfig(alpha=0.7)
    x = 0.83
    assert objective(normal, np.array([x]), STD, cfg) == pytest.approx(
        float(criterion(normal, x, STD, cfg)), rel=1e-14)


def test_objective_duplication_invariant(normal):
    cfg = DpdConfig(alpha=0.5)
    doubled = np.concatenate([OBJ10, OBJ10])
    assert objective(normal, doubled, STD, cfg) == pytest.approx(
        objective(normal, OBJ10, STD, cfg), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_objective_permutation_invariant(rnd):
    nm = Normal()
    cfg = DpdConfig(alpha=0.4)
    perm = list(range(OBJ10.shape[0]))
    rnd.shuffle(perm)
    assert objective(nm, OBJ10[perm], STD, cfg) == pytest.approx(
        objective(nm, OBJ10, STD, cfg), rel=1e-13)


def test_objective_frozen_brute_force(normal):
    # independent summation oracle (scipy.integrate.quad + direct pdf
    # formulas) computed before the build at theta=(0.1, 1.3)
    val = objective(normal, OBJ10, np.array([0.1, 1.3]), DpdConfig(alpha=0.5))
    assert val == pytest.approx(0.9569364796078661, abs=1e-10)


def test_minimizing_form_is_negated_objective():
    # the minimization form of the fitting problem: the model integral of
    # f^(1+alpha) minus (1 + 1/alpha) times the mean of f^alpha
    alpha = 0.5
    cfg = DpdConfig(alpha=alpha)
    for fam, thetas in family_grid():
        rng = np.random.default_rng(5)
        data = fam.sample(thetas[0], 50, rng)
        fa = np.exp(alpha * fam.logpdf(data, thetas[0]))
        lhs = (integral_term(fam, thetas[0], alpha, PLAIN_POWER)
               - (1 + 1 / alpha) * np.mean(fa))
        rhs = -objective(fam, data, thetas[0], cfg)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------------- derivatives

@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_gradient_matches_fd(alpha):
    rng = np.random.default_rng(21)
    cfg = DpdConfig(alpha=alpha)
    for fam, _ in family_grid():
        theta = random_feasible(fam, rng)
        data = fam.sample(theta, 30, rng)
        eval_at = random_feasible(fam, rng)
        grad = objective_gradient(fam, data, eval_at, cfg)
        fd = fd_gradient(lambda t: objective(fam, data, t, cfg), eval_at)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))
        assert rel < 1e-5, (fam.name, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_hessian_matches_fd(alpha):
    rng = np.random.default_rng(22)
    cfg = DpdConfig(alpha=alpha)
    for fam, _ in family_grid():
        theta = random_feasible(fam, rng)
        data = fam.sample(theta, 30, rng)
        H = objective_hessian(fam, data, theta, cfg)
        fd = fd_gradient(
            lambda t: objective_gradient(fam, data, t, cfg), theta, 2e-5)
        fd = 0.5 * (fd + fd.T)
        rel = np.max(np.abs(H - fd) / np.maximum(np.abs(fd), 1.0))
        assert rel < 1e-4, (fam.name, alpha)
        assert np.array_equal(H, H.T)


def test_hessian_symmetry_random():
    rng = np.random.default_rng(23)
    cfg = DpdConfig(alpha=0.5)
    for _ in range(1000):
        fam, thetas = family_grid()[int(rng.integers(len(family_grid())))]
        theta = random_feasible(fam, rng)
        x = fam.sample(theta, 1, rng)
        H = objective_hessian(fam, x, theta, cfg)
        assert np.array_equal(H, H.T)


def test_alpha_zero_gradient_is_mean_score(normal):
    data = OBJ10
    grad = objective_gradient(normal, data, STD, DpdConfig(alpha=0.0))
    assert np.allclose(grad, np.mean(normal.score(data, STD), axis=0),
                       rtol=1e-14)


def test_alpha_zero_exponential_hessian(exponential):
    lam = 1.7
    data = np.array([0.4, 2.0, 1.1])
    H = objective_hessian(exponential, data, np.array([lam]),
                          DpdConfig(alpha=0.0))
    assert H[0, 0] == pytest.approx(-1.0 / lam ** 2, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_value_and_gradient_equal_separate_views(alpha):
    cfg = DpdConfig(alpha=alpha)
    rng = np.random.default_rng(24)
    for fam, thetas in family_grid():
        data = fam.sample(thetas[0], 40, rng)
        theta = thetas[1]
        value, grad = objective_value_and_gradient(fam, data, theta, cfg)
        value1 = objective(fam, data, theta, cfg)
        grad1 = objective_gradient(fam, data, theta, cfg)
        if alpha == 0.0 or PLAIN_POWER in fam.closed_forms:
            assert value == value1, fam.name
            assert np.array_equal(grad, grad1), fam.name
        else:
            # the views alone sum f^(1+alpha) or S f^(1+alpha) by itself;
            # together the two are summed in one fused pass, in another
            # order of floating-point additions
            assert value == pytest.approx(value1, rel=1e-14, abs=0.0)
            assert np.allclose(grad, grad1, rtol=1e-14, atol=0.0)


# ------------------------------------------------------------- batches

@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_batched_kernel_equals_per_row_calls(alpha):
    # a batch (R, p) of points gives each row exactly what that row gives
    # alone: bitwise where every model integral has a closed form, and for
    # gpd and poisson, whose numeric integrals run once per row, to 1e-13
    cfg = DpdConfig(alpha=alpha)
    rng = np.random.default_rng(25)
    for fam, _ in family_grid():
        thetas = np.stack([random_feasible(fam, rng) for _ in range(11)])
        x = np.stack([fam.sample(t, 23, rng) for t in thetas])
        exact = fam.closed_forms == frozenset(INTEGRAL_KINDS)
        for orders in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]:
            batch = criterion_kernel(fam, thetas, cfg, orders)(x)
            for r in range(len(thetas)):
                alone = criterion_kernel(fam, thetas[r], cfg, orders)(x[r])
                for b, a in zip(batch, alone):
                    assert (b is None) == (a is None)
                    if a is None:
                        continue
                    if exact:
                        assert np.array_equal(b[r], a), (fam.name, orders)
                    else:
                        assert np.allclose(b[r], a, rtol=1e-13, atol=0.0), \
                            (fam.name, orders)
