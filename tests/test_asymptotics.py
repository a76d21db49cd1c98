import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from mindpd.asymptotics import (DiagnosticsConfig, _expanding_sup, compute_J,
                                compute_K, diagnose_regularity,
                                dpd_projection, empirical_sandwich,
                                empirical_sandwiches, population_gradient,
                                population_objective, sandwich)
from mindpd.divergence import DpdConfig, objective_hessian
from mindpd.errors import EstimationError
from mindpd.families import (SCORE_OUTER_POWER, Mixture, integral_term,
                             model_density)
from mindpd.quadrature import QuadratureSpec

from conftest import family_grid

STD = np.array([0.0, 1.0])

# brute-force Riemann oracles computed before the build
# (left sums, 2e6 points on [-10, 10] clean / 4e6 on [-12, 22] contaminated)
K_CLEAN = np.array([[0.14104739588778031, 0.0],
                    [0.0, 0.18201981380147098]])
J_CLEAN = np.array([[0.34380971498818547, 0.0],
                    [0.0, 0.51571457248240893]])
U_CLEAN = np.array([0.0, -0.1719048574943611])
K_CONTAM = np.array([[0.12694265629877974, 3.1232654712526819e-09],
                     [3.1232654712526819e-09, 0.1664774885377048]])
J_CONTAM = np.array([[0.30942867923632333, -4.1163576586844905e-07],
                     [-4.1163576586844905e-07, 0.48992616728561972]])


@pytest.fixture(scope="module")
def contaminated(normal):
    return Mixture([(normal, STD, 0.9),
                    (normal, np.array([10.0, 1.0]), 0.1)])


# ------------------------------------------------------- population objective

def test_population_maximized_at_true_theta(normal):
    cfg = DpdConfig(alpha=0.5)
    g = model_density(normal, STD)
    m0 = population_objective(normal, STD, g, cfg)
    for dmu in np.linspace(-0.4, 0.4, 5):
        for ds in np.linspace(-0.3, 0.3, 5):
            theta = STD + np.array([dmu, ds])
            if dmu == 0.0 and ds == 0.0:
                continue
            assert population_objective(normal, theta, g, cfg) < m0


def test_population_value_at_true_theta(normal):
    # substituting g = f gives M(theta0) = (1/alpha) integral of f^(1+alpha)
    from mindpd.families import PLAIN_POWER
    cfg = DpdConfig(alpha=0.5)
    g = model_density(normal, STD)
    expect = integral_term(normal, STD, 0.5, PLAIN_POWER) / 0.5
    assert population_objective(normal, STD, g, cfg) == pytest.approx(
        expect, rel=1e-10)


def test_projection_recovers_model_theta(normal):
    g = model_density(normal, np.array([0.7, 1.4]))
    theta0 = dpd_projection(normal, g, DpdConfig(alpha=0.5))
    assert np.allclose(theta0, [0.7, 1.4], atol=1e-7)


def test_projection_contaminated_is_stationary(normal, contaminated):
    cfg = DpdConfig(alpha=0.5)
    theta0 = dpd_projection(normal, contaminated, cfg)
    grad = population_gradient(normal, theta0, contaminated, cfg)
    assert np.max(np.abs(grad)) < 1e-7
    # robust projection stays near the clean component
    assert abs(theta0[0]) < 0.25


# ------------------------------------------------------- K, U, J

def test_k_equals_fisher_at_alpha_zero(normal):
    cfg = DpdConfig(alpha=0.0)
    K, U = compute_K(normal, STD, model_density(normal, STD), cfg)
    fisher = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(K, fisher, atol=1e-10)
    assert np.max(np.abs(U)) < 1e-12


def test_exponential_k_is_one(exponential):
    cfg = DpdConfig(alpha=0.0)
    th = np.array([1.0])
    K, _ = compute_K(exponential, th, model_density(exponential, th), cfg)
    assert K[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_k_j_match_riemann_oracle_clean(normal):
    cfg = DpdConfig(alpha=0.5)
    g = model_density(normal, STD)
    K, U = compute_K(normal, STD, g, cfg)
    J = compute_J(normal, STD, g, cfg)
    assert np.allclose(K, K_CLEAN, atol=1e-9)
    assert np.allclose(U, U_CLEAN, atol=1e-9)
    assert np.allclose(J, J_CLEAN, atol=1e-9)


def test_k_j_match_riemann_oracle_contaminated(normal, contaminated):
    cfg = DpdConfig(alpha=0.5)
    K, U = compute_K(normal, STD, contaminated, cfg)
    J = compute_J(normal, STD, contaminated, cfg)
    assert np.allclose(K, K_CONTAM, atol=1e-8)
    assert np.allclose(J, J_CONTAM, atol=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_j_second_term_vanishes_at_model(alpha):
    cfg = DpdConfig(alpha=alpha)
    for fam, thetas in family_grid():
        theta = thetas[0]
        J = compute_J(fam, theta, model_density(fam, theta), cfg)
        t1 = integral_term(fam, theta, alpha, SCORE_OUTER_POWER, cfg.quad)
        assert np.allclose(J, t1, atol=5e-9), fam.name


def test_k_equals_j_at_model_alpha_zero():
    cfg = DpdConfig(alpha=0.0)
    for fam, thetas in family_grid():
        theta = thetas[0]
        g = model_density(fam, theta)
        K, _ = compute_K(fam, theta, g, cfg)
        J = compute_J(fam, theta, g, cfg)
        assert np.linalg.norm(K - J) / np.linalg.norm(J) < 1e-8, fam.name


# ------------------------------------------------------- sandwich

def test_sandwich_is_inverse_fisher_at_mle(normal):
    cfg = DpdConfig(alpha=0.0)
    sw = sandwich(normal, STD, model_density(normal, STD), cfg)
    inv_fisher = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert np.allclose(sw.sigma, inv_fisher, rtol=1e-6, atol=1e-10)
    assert sw.provenance == "model"


def test_exponential_sandwich_is_one(exponential):
    th = np.array([1.0])
    sw = sandwich(exponential, th, model_density(exponential, th),
                  DpdConfig(alpha=0.0))
    assert sw.sigma[0, 0] == pytest.approx(1.0, rel=1e-8)


def test_sandwich_pieces_consistent(normal, contaminated):
    # sigma J = J^{-1} K within linear-solve tolerance
    sw = sandwich(normal, STD, contaminated, DpdConfig(alpha=0.5))
    lhs = sw.sigma @ sw.J
    rhs = np.linalg.solve(sw.J, sw.K)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(sw.sigma, sw.sigma.T)
    assert np.min(np.linalg.eigvalsh(sw.sigma)) > -1e-12


def test_sandwich_stable_under_node_doubling(normal, contaminated):
    s1 = sandwich(normal, STD, contaminated,
                  DpdConfig(alpha=0.5, quad=QuadratureSpec(nodes=128)))
    s2 = sandwich(normal, STD, contaminated,
                  DpdConfig(alpha=0.5, quad=QuadratureSpec(nodes=256)))
    assert np.allclose(s1.sigma, s2.sigma, rtol=1e-8)


def test_sandwich_singular_j_raises(normal):
    sw_err = pytest.raises(EstimationError)
    with sw_err:
        sandwich(normal, STD, model_density(normal, STD),
                 DpdConfig(alpha=0.5), cond_cap=1.0)


# ------------------------------------------------------- empirical sandwich

def test_empirical_needs_p_plus_one(normal):
    with pytest.raises(EstimationError):
        empirical_sandwich(normal, STD, np.array([0.1, 0.2]),
                           DpdConfig(alpha=0.5))


def test_empirical_duplication_invariant(normal):
    cfg = DpdConfig(alpha=0.5)
    rng = np.random.default_rng(2)
    data = normal.sample(STD, 50, rng)
    a = empirical_sandwich(normal, STD, data, cfg)
    b = empirical_sandwich(normal, STD, np.concatenate([data, data]), cfg)
    assert np.allclose(a.K, b.K, rtol=1e-12)
    assert np.allclose(a.J, b.J, rtol=1e-12)


def test_empirical_sandwiches_mark_unavailable_rows(normal):
    # one availability rule for a stack and for one fit: a row whose J is
    # over the condition cap gets the error empirical_sandwich raises, and
    # the other rows the sandwich they get alone
    cfg = DpdConfig(alpha=0.5)
    rng = np.random.default_rng(4)
    thetas = np.array([[0.0, 1.0], [0.3, 2.0], [-0.2, 0.7]])
    data = np.stack([normal.sample(t, 40, rng) for t in thetas])
    alone = [empirical_sandwich(normal, t, x, cfg)
             for t, x in zip(thetas, data)]
    cap = sorted(sw.cond_J for sw in alone)[1]
    stack = empirical_sandwiches(normal, thetas, data, cfg, cond_cap=cap)
    for sw, one, t, x in zip(stack, alone, thetas, data):
        if one.cond_J > cap:
            assert isinstance(sw, EstimationError)
            with pytest.raises(EstimationError, match=re.escape(str(sw))):
                empirical_sandwich(normal, t, x, cfg, cond_cap=cap)
        else:
            assert np.allclose(sw.sigma, one.sigma, rtol=1e-13, atol=0.0)
    assert sum(isinstance(sw, EstimationError) for sw in stack) == 1


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_empirical_j_is_scaled_objective_hessian(alpha):
    cfg = DpdConfig(alpha=alpha)
    rng = np.random.default_rng(4)
    for fam, thetas in family_grid():
        data = fam.sample(thetas[0], 60, rng)
        sw = empirical_sandwich(fam, thetas[0], data, cfg)
        H = objective_hessian(fam, data, thetas[0], cfg)
        assert np.max(np.abs(sw.J + H / (1 + alpha))) \
            <= 1e-12 * np.max(np.abs(H)), fam.name


def test_empirical_converges_to_model(normal):
    # law of large numbers at n = 1e5: within 5% elementwise
    # (repeated-seed median)
    cfg = DpdConfig(alpha=0.5)
    g = model_density(normal, STD)
    K_m, _ = compute_K(normal, STD, g, cfg)
    J_m = compute_J(normal, STD, g, cfg)
    scale_K = np.sqrt(np.outer(np.diag(K_m), np.diag(K_m)))
    scale_J = np.sqrt(np.outer(np.diag(J_m), np.diag(J_m)))
    errs_K, errs_J = [], []
    for seed in (11, 12, 13):
        data = normal.sample(STD, 100_000, np.random.default_rng(seed))
        sw = empirical_sandwich(normal, STD, data, cfg)
        errs_K.append(np.max(np.abs(sw.K - K_m) / scale_K))
        errs_J.append(np.max(np.abs(sw.J - J_m) / scale_J))
    assert np.median(errs_K) < 0.05
    assert np.median(errs_J) < 0.05


# ------------------------------------------------------- diagnostics

def test_diagnostics_normal_alpha_half(normal):
    cfg = DpdConfig(alpha=0.5)
    rep = diagnose_regularity(normal, STD, model_density(normal, STD), cfg)
    assert rep.hessian_identity_error < 1e-3
    assert rep.interchange_error < 1e-6
    assert all(rep.score_bound_bounded)
    assert rep.verdicts["overall"] == "pass"


def test_diagnostics_alpha_zero_flags_score_bound(normal):
    cfg = DpdConfig(alpha=0.0)
    rep = diagnose_regularity(normal, STD, model_density(normal, STD), cfg)
    assert rep.score_bound_bounded[0] is False  # location coordinate
    assert rep.verdicts["score_bound"] == "warn"
    assert rep.verdicts["overall"] == "warn"


def test_diagnostics_serializable(normal):
    cfg = DpdConfig(alpha=0.5)
    rep = diagnose_regularity(normal, STD, model_density(normal, STD), cfg)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["verdicts"]["overall"] == "pass"
    assert "squared-score" in rep.render_text()


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_hessian_identity_all_families(alpha):
    # the population Hessian equals -(1+alpha) J for every built-in family
    cfg = DpdConfig(alpha=alpha)
    for fam, thetas in family_grid():
        theta = thetas[0]
        rep = diagnose_regularity(fam, theta, model_density(fam, theta), cfg)
        assert rep.hessian_identity_error < 1e-3, (fam.name, alpha)
        assert rep.verdicts["hessian_identity"] == "pass"


@pytest.mark.parametrize("rate, tol", [(1e4, 8.3e-5), (1e7, 1e-3)])
def test_hessian_identity_at_large_poisson_rates(poisson, rate, tol):
    # the finite-difference steps stay within the model's spread: a step
    # of 3.16e-4 theta is one standard deviation at rate 1e7, where the
    # identity read 7.9e-2 (and 8.3e-5 at rate 1e4)
    theta = np.array([rate])
    rep = diagnose_regularity(poisson, theta, model_density(poisson, theta),
                              DpdConfig(alpha=0.5))
    assert rep.hessian_identity_error < tol
    assert rep.verdicts["hessian_identity"] == "pass"


# ------------------------------------------------------------- score bound

def _full_integer_scan(fam, theta, alpha, dcfg):
    # reference: every integer from 0 up to 2^max_doublings times the
    # window's upper end, as the scan once materialised it
    def s2(x):
        return np.max(fam.score(x, theta) ** 2 * np.exp(
            2 * alpha * fam.logpdf(x, theta))[:, None], axis=0)

    hi = max(int(np.ceil(fam.window(theta, 1e-6)[1])), 8)
    history = [s2(np.arange(0, hi + 1, dtype=float))]
    for _ in range(dcfg.max_doublings):
        history.append(np.maximum(history[-1], s2(
            np.arange(hi + 1, 2 * hi + 1, dtype=float))))
        hi *= 2
    history = np.asarray(history)[:, 0]
    rel = np.diff(history) / np.maximum(np.abs(history[1:]), 1e-300)
    bounded = bool(rel[-1] < dcfg.sup_rel_change
                   and not np.all(rel[-3:] > dcfg.sup_rel_change))
    return history[-1], bounded


@pytest.mark.parametrize("rate", [0.8, 3.0, 11.0, 1e4])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_discrete_score_bound_matches_full_scan(poisson, rate, alpha):
    # the bounded scan (exact window, sampled extensions) finds the sups
    # and flags of the scan over every integer
    dcfg = DiagnosticsConfig()
    sups, bounded = _expanding_sup(poisson, np.array([rate]), alpha, dcfg)
    ref_sup, ref_bounded = _full_integer_scan(poisson, np.array([rate]),
                                              alpha, dcfg)
    assert sups[0] == pytest.approx(ref_sup, rel=1e-12)
    assert bounded == [ref_bounded]


def test_diagnose_huge_poisson_rate_runs_in_bounded_memory():
    # the scan once built every integer up to 2^8 times the window, some
    # 2.5e9 floats at rate 1e7; under a 3 GB address-space limit the
    # command now completes
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9))

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "mindpd", "diagnose", "--family", "poisson",
         "--theta", "1e7", "--alpha", "0.5"],
        env=env, preexec_fn=limit, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
