import numpy as np
import pytest

from mindpd.divergence import DpdConfig, objective, objective_hessian
from mindpd.errors import EstimationError, NonconvergenceError
from mindpd.estimation import FitConfig, FitResult, fit, fit_path

from conftest import OBJ10, FIXTURES

import os


@pytest.fixture(scope="module")
def clean_sample(normal):
    rng = np.random.default_rng(31)
    return normal.sample(np.array([1.5, 2.0]), 300, rng)


def test_mle_matches_closed_form_normal(normal, clean_sample):
    res = fit(normal, clean_sample, DpdConfig(alpha=0.0), FitConfig(starts=1))
    assert res.converged
    assert abs(res.theta_hat[0] - np.mean(clean_sample)) < 1e-8
    assert abs(res.theta_hat[1] - np.std(clean_sample)) < 1e-8


def test_mle_matches_closed_form_exponential(exponential):
    rng = np.random.default_rng(32)
    data = exponential.sample(np.array([2.2]), 400, rng)
    res = fit(exponential, data, DpdConfig(alpha=0.0), FitConfig(starts=1))
    assert abs(res.theta_hat[0] - 1.0 / np.mean(data)) < 1e-8


def test_mle_matches_closed_form_poisson(poisson):
    rng = np.random.default_rng(33)
    data = poisson.sample(np.array([3.0]), 400, rng)
    res = fit(poisson, data, DpdConfig(alpha=0.0), FitConfig(starts=1))
    assert abs(res.theta_hat[0] - np.mean(data)) < 1e-8


def test_fit_matches_grid_search_oracle(normal):
    # frozen oracle: 121x121 grid + coordinate bisection on the directly
    # coded objective, computed before the build
    res = fit(normal, OBJ10, DpdConfig(alpha=0.5), FitConfig(starts=3))
    assert res.theta_hat[0] == pytest.approx(0.47222477217521497, abs=1e-6)
    assert res.theta_hat[1] == pytest.approx(1.0851500119310025, abs=1e-6)


def test_first_order_condition_and_curvature(normal, clean_sample):
    cfg = DpdConfig(alpha=0.5)
    fc = FitConfig(starts=2)
    res = fit(normal, clean_sample, cfg, fc)
    assert res.gradient_norm < fc.grad_tol
    H = objective_hessian(normal, clean_sample, res.theta_hat, cfg)
    assert np.max(np.linalg.eigvalsh(H)) < 1e-8  # maximum, not a saddle


def test_near_maximizer_contract(normal, clean_sample):
    cfg = DpdConfig(alpha=0.5)
    res = fit(normal, clean_sample, cfg, FitConfig(starts=2))
    best = res.objective_value
    rng = np.random.default_rng(0)
    for _ in range(50):
        probe = res.theta_hat + rng.normal(0, 0.2, 2) * [1.0, 0.3]
        if probe[1] <= 0:
            continue
        assert objective(normal, clean_sample, probe, cfg) <= best + 1e-12


def test_multistart_agreement(normal, clean_sample):
    res = fit(normal, clean_sample, DpdConfig(alpha=0.5), FitConfig(starts=5))
    assert res.n_starts_agreeing == 5
    assert all(res.converged_starts)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_shift_equivariance(normal, clean_sample, alpha):
    cfg = DpdConfig(alpha=alpha)
    fc = FitConfig(starts=1)
    base = fit(normal, clean_sample, cfg, fc)
    shifted = fit(normal, clean_sample + 7.25, cfg, fc)
    assert shifted.theta_hat[0] - base.theta_hat[0] == pytest.approx(
        7.25, abs=1e-7)
    assert shifted.theta_hat[1] == pytest.approx(base.theta_hat[1], abs=1e-7)


def test_needs_p_plus_one(normal):
    with pytest.raises(EstimationError):
        fit(normal, np.array([1.0, 2.0]), DpdConfig(alpha=0.5))


def test_degenerate_sample_boundary_flag(normal):
    res = fit(normal, np.full(10, 3.7), DpdConfig(alpha=0.5),
              FitConfig(starts=1))
    assert res.at_boundary
    assert not res.converged
    assert res.standard_errors is None
    assert res.se_unavailable_reason is not None
    assert res.theta_hat[0] == pytest.approx(3.7, abs=1e-6)


def test_standard_errors_shape(normal, clean_sample):
    res = fit(normal, clean_sample, DpdConfig(alpha=0.5), FitConfig(starts=1))
    assert res.standard_errors.shape == (2,)
    expected = np.sqrt(np.diag(res.sandwich.sigma) / res.n)
    assert np.allclose(res.standard_errors, expected, rtol=1e-14)
    assert res.wald_intervals.shape == (2, 2)
    lo, hi = res.wald_intervals[0]
    assert lo < res.theta_hat[0] < hi


def test_result_roundtrip(normal, clean_sample):
    res = fit(normal, clean_sample, DpdConfig(alpha=0.5), FitConfig(starts=2))
    doc = res.to_dict()
    back = FitResult.from_dict(doc)
    assert back.to_dict() == doc
    assert np.array_equal(back.theta_hat, res.theta_hat)
    assert np.array_equal(back.sandwich.sigma, res.sandwich.sigma)


def test_objective_value_self_consistent(normal, clean_sample):
    cfg = DpdConfig(alpha=0.5)
    res = fit(normal, clean_sample, cfg, FitConfig(starts=1))
    assert res.objective_value == pytest.approx(
        objective(normal, clean_sample, res.theta_hat, cfg), rel=1e-13)


# ------------------------------------------------------------- fit path

def test_fit_path_degenerate_grid(normal, clean_sample):
    path = fit_path(normal, clean_sample, [0.0], FitConfig(starts=1))
    assert len(path.results) == 1
    assert abs(path.results[0].theta_hat[0] - np.mean(clean_sample)) < 1e-8


def test_fit_path_requires_ascending(normal, clean_sample):
    with pytest.raises(ValueError):
        fit_path(normal, clean_sample, [0.5, 0.25])
    with pytest.raises(ValueError):
        fit_path(normal, clean_sample, [])


def test_fit_path_warm_equals_cold(normal, clean_sample):
    path = fit_path(normal, clean_sample, [0.0, 0.25, 0.5, 0.75, 1.0],
                    FitConfig(starts=2), cold_check_every=1)
    assert all(r is not None for r in path.results)
    assert max(path.cold_check_gaps.values()) < 1e-6


def test_fit_path_records_errors_and_continues(normal, clean_sample,
                                               monkeypatch):
    import mindpd.estimation as est
    real_fit = est.fit

    def flaky(fam, sample, cfg, fit_cfg=FitConfig(), anchor=None):
        if cfg.alpha == 0.5:
            raise NonconvergenceError("forced failure")
        return real_fit(fam, sample, cfg, fit_cfg, anchor=anchor)

    monkeypatch.setattr(est, "fit", flaky)
    path = est.fit_path(normal, clean_sample, [0.0, 0.5, 1.0],
                        FitConfig(starts=1), cold_check_every=0)
    assert path.results[1] is None
    assert "forced failure" in path.errors[1]
    assert path.results[0] is not None and path.results[2] is not None


def test_fit_path_ses_nondecreasing_in_alpha(normal):
    # efficiency loss direction: the location standard error grows with
    # alpha on clean data (median over replications)
    rng_master = np.random.default_rng(77)
    grid = [0.0, 0.5, 1.0]
    ses = []
    for _ in range(200):
        data = normal.sample(np.array([0.0, 1.0]), 150,
                             np.random.default_rng(rng_master.integers(2**32)))
        path = fit_path(normal, data, grid, FitConfig(starts=1),
                        cold_check_every=0)
        if all(r is not None and r.standard_errors is not None
               for r in path.results):
            ses.append([r.standard_errors[0] for r in path.results])
    med = np.median(np.array(ses), axis=0)
    assert med[0] <= med[1] <= med[2]


def test_contaminated_fixture_bias_direction(normal):
    # 0.9 N(0,1) + 0.1 N(10, 0.1): the location fit moves toward 0 as
    # alpha grows
    data = np.loadtxt(os.path.join(FIXTURES, "contam200.csv"), skiprows=1)
    path = fit_path(normal, data, [0.0, 1.0], FitConfig(starts=3),
                    cold_check_every=0)
    mu_mle = path.results[0].theta_hat[0]
    mu_robust = path.results[1].theta_hat[0]
    assert abs(mu_robust) < abs(mu_mle)
    assert abs(mu_mle) > 0.8          # the MLE is dragged by the outliers
    assert abs(mu_robust) < 0.15


def test_start_trace_counts_every_evaluation(gpd, monkeypatch):
    # every line-search evaluation counts; the maximum likelihood anchor
    # runs at alpha = 0 and belongs to no start
    import mindpd.estimation as est
    points = []
    original = est.criterion_kernel

    def counted(fam, theta, cfg, orders):
        # a value-and-gradient evaluation is a (0, 1) kernel, one row of
        # theta per start it evaluates
        if cfg.alpha == 0.5 and orders == (0, 1):
            points.append(len(theta))
        return original(fam, theta, cfg, orders)

    monkeypatch.setattr(est, "criterion_kernel", counted)
    data = gpd.sample(np.array([0.3, 1.2]), 2000, np.random.default_rng(8))
    res = fit(gpd, data, DpdConfig(alpha=0.5), FitConfig(starts=2))
    assert sum(t["n_evals"] for t in res.start_trace) == sum(points)


def test_ascent_direction_on_indefinite_hessian():
    # where -H is indefinite or nearly singular, the Levenberg shift still
    # gives a finite ascent direction; a non-finite H gives NaN, not a step
    from mindpd.optimize import _ascent_direction
    H = np.array([[[1.0, 0.3], [0.3, -2.0]],       # indefinite
                  [[-1.0, 1.0], [1.0, -1.0]],      # -H singular
                  [[-4.0, 0.0], [0.0, -1e-12]],    # nearly singular
                  [[-1e12, 0.0], [0.0, 0.0]],      # flat beside steep
                  [[np.nan, 0.0], [0.0, -1.0]]])
    grad = np.array([[0.5, -1.0], [1.0, 0.2], [0.3, 0.7], [1e-3, -1.0],
                     [1.0, 1.0]])
    step = _ascent_direction(H, grad)
    assert np.all(np.isfinite(step[:4]))
    assert np.all(np.sum(step[:4] * grad[:4], axis=1) > 0)
    assert np.all(np.linalg.norm(step[:4], axis=1) < 1e9)
    assert np.all(np.isnan(step[4]))
    # the flat coordinate moves by about its gradient, not by its gradient
    # over 1e-8 of the steep curvature (a degenerate sample's sigma beside
    # its mu)
    assert step[3, 1] < -0.5
    # the shift leaves a safely definite system alone
    assert np.allclose(_ascent_direction(H[2:3] - np.eye(2), grad[2:3]),
                       np.linalg.solve(np.eye(2) - H[2], grad[2]))


@pytest.mark.parametrize("family, theta, starts",
                         [("gpd", [0.3, 1.2], 2), ("poisson", [40.0], 1)])
def test_solver_returns_best_point_evaluated(family, theta, starts,
                                             monkeypatch):
    # the near-maximizer contract on the solver itself: every row's value
    # is at least every value evaluated for that row, up to the tie
    # allowance of the line search
    import mindpd.estimation as est
    from mindpd.families import get_family
    real = est.maximize
    rows_checked = []

    def checked(evaluate, z0, hessian, **kw):
        best = np.full(len(z0), -np.inf)

        def recording(rows, zs):
            value, grad = evaluate(rows, zs)
            best[rows] = np.maximum(best[rows], value)
            return value, grad

        results = real(recording, z0, hessian, **kw)
        value = np.array([r.value for r in results])
        assert np.all(value >= best - 1e-15 * np.maximum(1.0, np.abs(best)))
        rows_checked.append(len(results))
        return results

    monkeypatch.setattr(est, "maximize", checked)
    fam = get_family(family)
    data = fam.sample(np.array(theta), 500, np.random.default_rng(5))
    res = fit(fam, data, DpdConfig(alpha=0.5), FitConfig(starts=starts))
    assert res.converged
    assert rows_checked == [1, starts]   # the alpha = 0 anchor, the starts


@pytest.mark.parametrize("rate", [5000.0, 1e4])
def test_poisson_large_rate_fits_converge(poisson, rate):
    # near the optimum the objective's value is noisy at 3e-13 relative
    # while its gradient is smooth: steps whose predicted increase is below
    # the tie tolerance are taken on a falling gradient, instead of stalling
    # above grad_tol
    for seed in range(8):
        data = poisson.sample(np.array([rate]), 500,
                              np.random.default_rng(seed))
        res = fit(poisson, data, DpdConfig(alpha=0.5), FitConfig(starts=1))
        assert res.converged
        assert abs(res.theta_hat[0] - rate) < 5 * np.sqrt(rate / 500)


def test_failing_row_leaves_other_rows_alone(poisson):
    # a quadrature failure in one row (a Poisson window over MAX_SUM_TERMS)
    # reads -inf / NaN for that row only; the other rows keep the bytes of
    # their own evaluation
    from mindpd.estimation import _WorkingObjective
    data = poisson.sample(np.array([3.0]), 50, np.random.default_rng(2))
    dpd = _WorkingObjective(poisson, np.stack([data, data]),
                            DpdConfig(alpha=0.5))
    evaluate, hessian = dpd.evaluate, dpd.hessian
    z = np.log([[3.0], [1e12]])
    rows = np.array([0, 1])
    value, grad = evaluate(rows, z)
    H = hessian(rows, z)
    alone = evaluate(rows[:1], z[:1])
    assert value[0] == alone[0][0] and np.array_equal(grad[0], alone[1][0])
    assert np.array_equal(H[0], hessian(rows[:1], z[:1])[0])
    assert value[1] == -np.inf and np.all(np.isnan(H[1]))


def test_large_sample_starts_run_in_bounded_groups(normal, monkeypatch):
    # the starts of a sample share an objective call only up to
    # MAX_BATCH_POINTS observations, so a large sample's working arrays do
    # not grow with its starts; grouping leaves every byte of the fit alone
    import mindpd.estimation as est
    data = normal.sample(np.array([0.0, 1.0]), 40000,
                         np.random.default_rng(4))
    cfg, fc = DpdConfig(alpha=0.5), FitConfig(starts=3)
    rows_per_call = []
    original = est.criterion_kernel

    def spy(fam, theta, cfg, orders):
        rows_per_call.append(len(theta))
        return original(fam, theta, cfg, orders)

    monkeypatch.setattr(est, "criterion_kernel", spy)
    grouped = fit(normal, data, cfg, fc)
    assert max(rows_per_call) == 1
    rows_per_call.clear()
    monkeypatch.setattr(est, "MAX_BATCH_POINTS", 2 ** 30)
    whole = fit(normal, data, cfg, fc)
    assert max(rows_per_call) == 3
    assert grouped.to_dict() == whole.to_dict()
