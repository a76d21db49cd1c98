import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindpd.asymptotics import sandwich
from mindpd.divergence import DpdConfig
from mindpd.errors import NonconvergenceError, StudyError
from mindpd.estimation import FitConfig
from mindpd.families import Mixture, NormalLocation, model_density
from mindpd.montecarlo import (McConfig, chi2_cdf, draw, efficiency_curve,
                               ks_distance, replication_stream,
                               run_consistency_study, run_normality_study)
from mindpd.quadrature import DEFAULT_QUAD

from conftest import family_grid


@pytest.fixture(scope="module")
def clean_gen(normal):
    return model_density(normal, np.array([0.0, 1.0]))


# ------------------------------------------------------------- sampling

def test_draw_deterministic(clean_gen):
    a = draw(clean_gen, 100, seed=5)
    b = draw(clean_gen, 100, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw(clean_gen, 100, seed=6))


def test_degenerate_weights(normal):
    mix = Mixture([(normal, np.array([0.0, 1.0]), 1.0),
                   (normal, np.array([50.0, 0.1]), 0.0)])
    x = draw(mix, 2000, seed=1)
    assert np.max(np.abs(x)) < 10  # nothing from the zero-weight component


def test_clt_bound(clean_gen):
    n = 1_000_000
    means = [abs(np.mean(clean_gen.sample(n, replication_stream(s, 0, 0))))
             for s in (1, 2, 3)]
    assert np.median(means) < 4 / np.sqrt(n)


def test_replication_streams_differ():
    a = replication_stream(9, 0, 0).random(4)
    b = replication_stream(9, 0, 1).random(4)
    c = replication_stream(9, 1, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------- helpers

def test_chi2_cdf_against_scipy():
    # independent oracle: scipy.stats implementation
    from scipy import stats
    xs = np.array([0.1, 0.7, 2.0, 5.0, 11.0])
    for df in (1, 2, 5):
        assert np.allclose(chi2_cdf(xs, df), stats.chi2.cdf(xs, df),
                           rtol=1e-12)


def test_ks_distance_uniform():
    rng = np.random.default_rng(4)
    u = rng.random(4000)
    d = ks_distance(u, lambda x: np.clip(x, 0, 1))
    assert d < 0.03
    d_bad = ks_distance(u * 0.5, lambda x: np.clip(x, 0, 1))
    assert d_bad > 0.4


# ------------------------------------------------------------- studies

def test_consistency_single_n_has_no_verdict(clean_gen, normal):
    cfg = McConfig(alphas=(0.5,), n_grid=(120,), reps=10, master_seed=2,
                   fit=FitConfig(starts=1))
    rep = run_consistency_study(clean_gen, normal, cfg)
    assert rep.verdicts["0.5"] is None
    assert len(rep.cells) == 1


def test_consistency_trend(clean_gen, normal):
    cfg = McConfig(alphas=(0.5,), n_grid=(100, 400, 1600), reps=40,
                   master_seed=3, fit=FitConfig(starts=1))
    rep = run_consistency_study(clean_gen, normal, cfg)
    meds = [c["median_error"] for c in rep.cells]
    assert meds[0] > meds[1] > meds[2]
    assert rep.verdicts["0.5"] == "pass"


def test_study_reproducible_and_worker_independent(clean_gen, normal):
    base = dict(alphas=(0.5,), n_grid=(200,), reps=24, master_seed=17,
                fit=FitConfig(starts=1))
    r1 = run_normality_study(clean_gen, normal, McConfig(workers=1, **base))
    r2 = run_normality_study(clean_gen, normal, McConfig(workers=1, **base))
    r3 = run_normality_study(clean_gen, normal, McConfig(workers=2, **base))
    assert r1.replication_csv() == r2.replication_csv()
    assert r1.replication_csv() == r3.replication_csv()
    s1 = json.dumps(r1.summary_dict(), sort_keys=True)
    s3 = json.dumps(r3.summary_dict(), sort_keys=True)
    assert s1 == s3


def test_nonconvergence_cap(clean_gen, normal, monkeypatch):
    import mindpd.montecarlo as mc

    def failing(args):
        rep = args[6]
        ok = rep % 3 != 0
        return {"rep": rep, "converged": ok, "boundary": False,
                "theta": [0.0, 1.0] if ok else None,
                "se": None, "grad_norm": 0.0 if ok else None}

    monkeypatch.setattr(mc, "_run_rep", failing)
    cfg = McConfig(alphas=(0.5,), n_grid=(100,), reps=9, master_seed=1)
    with pytest.raises(StudyError):
        mc.run_consistency_study(clean_gen, normal, cfg)


def test_exclusions_reported(clean_gen, normal, monkeypatch):
    import mindpd.montecarlo as mc
    real = mc._run_rep

    def flaky(args):
        row = real(args)
        if args[6] == 4:   # one bad replication out of 60
            row = dict(row, converged=False, theta=None)
        return row

    monkeypatch.setattr(mc, "_run_rep", flaky)
    cfg = McConfig(alphas=(0.5,), n_grid=(100,), reps=60, master_seed=1,
                   fit=FitConfig(starts=1))
    rep = mc.run_consistency_study(clean_gen, normal, cfg)
    assert rep.cells[0]["n_excluded"] == 1
    lines = rep.replication_csv().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    flagged = [r for r in rows if r["excluded"] == "1"]
    assert len(flagged) == 1 and flagged[0]["rep"] == "4"


def test_boundary_fits_enter_consistency_statistics(clean_gen, normal,
                                                    monkeypatch):
    # a boundary-flagged fit is a definite constrained estimate: it stays in
    # the consistency error statistics instead of being silently dropped
    import mindpd.montecarlo as mc
    real = mc._run_rep

    def with_boundary(args):
        row = real(args)
        if args[6] == 2:
            row = dict(row, converged=False, boundary=True)
        return row

    monkeypatch.setattr(mc, "_run_rep", with_boundary)
    cfg = McConfig(alphas=(0.5,), n_grid=(100,), reps=30, master_seed=6,
                   fit=FitConfig(starts=1))
    rep = mc.run_consistency_study(clean_gen, normal, cfg)
    assert rep.cells[0]["n_excluded"] == 0


def test_normality_smoke_fields(clean_gen, normal):
    cfg = McConfig(alphas=(0.0,), n_grid=(400,), reps=50, master_seed=5,
                   fit=FitConfig(starts=1))
    rep = run_normality_study(clean_gen, normal, cfg)
    cell = rep.cells[0]
    assert np.all(np.isfinite(cell["emp_cov"]))
    cov = np.array(cell["emp_cov"])
    assert np.min(np.linalg.eigvalsh(cov)) > 0
    assert 0.0 <= cell["ks_mahalanobis"] <= 1.0
    for c in cell["coverage"]:
        assert 0.0 <= c <= 1.0
    assert "alpha=0,n=400" in rep.verdicts


def test_single_rep_single_cell_csv(clean_gen, normal):
    cfg = McConfig(alphas=(0.5,), n_grid=(50,), reps=1, master_seed=8,
                   fit=FitConfig(starts=1))
    rep = run_consistency_study(clean_gen, normal, cfg)
    lines = rep.replication_csv().strip().split("\n")
    assert len(lines) == 2  # header + one replication


# ------------------------------------------------------------- efficiency

def test_efficiency_curve_all_families():
    grid = [0.0, 0.25, 0.5, 1.0]
    for fam, thetas in family_grid():
        rows = efficiency_curve(fam, thetas[0], grid)
        assert np.allclose(rows[0]["are"], 1.0, atol=1e-8)
        for r in rows[1:]:
            assert all(a < 1.0 for a in r["are"]), fam.name


def test_efficiency_nonincreasing_normal_location(normal):
    grid = [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    rows = efficiency_curve(normal, np.array([0.0, 1.0]), grid)
    mu_are = [r["are"][0] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(mu_are, mu_are[1:]))


# ------------------------------------------------------------- MC vs sandwich

def test_sandwich_matches_mc_variance_normal_location():
    # 1-d location model with known sigma: the quadrature sandwich at the
    # model matches the Monte Carlo variance of sqrt(n)(theta_hat - theta0)
    # within 5% at n = 5000
    fam = NormalLocation(1.0)
    theta0 = np.array([0.3])
    gen = model_density(fam, theta0)
    cfg = DpdConfig(alpha=0.5)
    sigma = sandwich(fam, theta0, gen, cfg).sigma[0, 0]
    mc = McConfig(alphas=(0.5,), n_grid=(5000,), reps=3000, master_seed=21,
                  fit=FitConfig(starts=1))
    rep = run_normality_study(gen, fam, mc)
    emp = rep.cells[0]["emp_cov"][0][0]
    assert abs(emp - sigma) / sigma < 0.05


def test_consistency_invariant_all_families_clean():
    # clean-model consistency verdict across the alpha grid for every
    # built-in family, at reduced desk scale
    from conftest import family_grid
    for fam, thetas in family_grid():
        if fam.name == "normal_loc":
            continue  # covered by the normal family
        gen = model_density(fam, thetas[0])
        # reduced desk scale: the n grid stops at 400, so the configured
        # final-median threshold is looser than the acceptance run's default
        cfg = McConfig(alphas=(0.0, 0.5, 1.0), n_grid=(100, 400), reps=30,
                       master_seed=13, fit=FitConfig(starts=1), workers=2,
                       theta_true=tuple(thetas[0]),
                       consistency_threshold=0.5)
        rep = run_consistency_study(gen, fam, cfg)
        for a in (0.0, 0.5, 1.0):
            assert rep.verdicts[str(a)] == "pass", (fam.name, a)


def test_replication_csv_roundtrip(clean_gen, normal):
    # re-parsing the written rows reproduces the in-memory values exactly
    cfg = McConfig(alphas=(0.5,), n_grid=(80,), reps=12, master_seed=31,
                   fit=FitConfig(starts=1))
    rep = run_normality_study(clean_gen, normal, cfg)
    lines = rep.replication_csv().strip().split("\n")
    header = lines[0].split(",")
    for line, row in zip(lines[1:], rep.cells[0]["rows"]):
        rec = dict(zip(header, line.split(",")))
        assert int(rec["rep"]) == row["rep"]
        assert float(rec["est_mu"]) == row["theta"][0]
        assert float(rec["est_sigma"]) == row["theta"][1]
        if row["se"] is not None:
            assert float(rec["se_mu"]) == row["se"][0]


def test_normality_covariance_exponential(exponential):
    # the z-covariance matches the sandwich within 10% at n=5000 for the
    # exponential family as well (reps sized so sampling noise is ~4%)
    gen = model_density(exponential, np.array([1.3]))
    cfg = McConfig(alphas=(0.5,), n_grid=(5000,), reps=1500, master_seed=12,
                   fit=FitConfig(starts=1))
    rep = run_normality_study(gen, exponential, cfg)
    assert rep.cells[0]["cov_rel_err_max"] < 0.10


def test_population_objective_reports_non_integrable(normal):
    # a quadrature budget too small to converge surfaces as a
    # theta-not-integrable report, not a silent wrong number
    from mindpd.asymptotics import population_objective
    from mindpd.errors import IntegrabilityError
    from mindpd.quadrature import QuadratureSpec
    from mindpd.families import Mixture
    import numpy as np
    import pytest as _pytest
    g = Mixture([(normal, np.array([0.0, 1.0]), 0.5),
                 (normal, np.array([40.0, 0.01]), 0.5)])
    cfg = DpdConfig(alpha=0.5, quad=QuadratureSpec(
        nodes=16, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=1))
    with _pytest.raises(IntegrabilityError):
        population_objective(normal, np.array([0.0, 1.0]), g, cfg)


# ------------------------------------------------------------- batched cells

def _cell_args(gen, fam, alpha, n, reps, starts, want_se=True):
    return [(gen, fam, alpha, n, 44, 3, rep, FitConfig(starts=starts),
             DEFAULT_QUAD, want_se) for rep in range(reps)]


def test_batched_rows_independent_of_chunking(normal):
    # a replication's row is the same bytes whichever replications share
    # its chunk: chunks of 1, of 7, of all, and with a boundary moved
    import mindpd.montecarlo as mc
    gen = Mixture([(normal, np.array([0.0, 1.0]), 0.9),
                   (normal, np.array([6.0, 1.0]), 0.1)])
    args = _cell_args(gen, normal, 0.5, 60, 19, starts=2)
    whole = mc._run_chunk(args)

    def chunked(size, first=None):
        cuts = [0] + ([first] if first else []) + list(
            range(first or size, len(args), size))
        cuts = sorted(set(cuts)) + [len(args)]
        return [row for a, b in zip(cuts, cuts[1:])
                for row in mc._run_chunk(args[a:b])]

    assert len(whole) == 19 and all(r["converged"] for r in whole)
    assert chunked(1) == whole
    assert chunked(7) == whole
    assert chunked(7, first=3) == whole


def test_batched_row_without_converged_start_goes_through_run_rep(
        exponential, monkeypatch):
    # a row none of whose batched starts converged (here under a gradient
    # tolerance no start meets) is reported from those starts: _run_rep
    # calls fit once with the row's solution, fit raises
    # NonconvergenceError with their trace, and nothing solves it again
    import mindpd.estimation as est
    import mindpd.montecarlo as mc
    gen = model_density(exponential, np.array([1.3]))
    unreachable = FitConfig(starts=2, grad_tol=1e-300)
    args = [a[:7] + (unreachable,) + a[8:]
            for a in _cell_args(gen, exponential, 0.5, 80, 6, starts=2)]
    real_batch, real_fit = est.fit_batch, est.fit
    solves, failures = [], []

    def counted_batch(*a, **kw):
        solves.append(len(a[1]))
        return real_batch(*a, **kw)

    def spy(*a, solution=None, **kw):
        try:
            return real_fit(*a, solution=solution, **kw)
        except NonconvergenceError as exc:
            failures.append((solution, exc))
            raise

    monkeypatch.setattr(mc, "fit_batch", counted_batch)
    monkeypatch.setattr(est, "fit_batch", counted_batch)
    monkeypatch.setattr(mc, "fit", spy)
    rows = mc._run_chunk(args)
    assert solves == [6]
    assert len(failures) == 6
    for row, (solution, exc) in zip(rows, failures):
        assert not row["converged"] and row["theta"] is None
        assert len(exc.detail) == 2
        assert exc.detail == est._start_trace(solution.results)


def test_batched_rows_match_single_fits(normal, poisson):
    # a batched row is the bytes of the same replication fitted alone
    import mindpd.montecarlo as mc
    for fam, theta in ((normal, [0.5, 1.5]), (poisson, [4.0])):
        gen = model_density(fam, np.array(theta))
        for alpha in (0.0, 0.5, 1.0):
            args = _cell_args(gen, fam, alpha, 50, 5, starts=2)
            for row, a in zip(mc._run_chunk(args), args):
                assert row["converged"]
                assert row == mc._run_rep(a)


def test_closed_form_study_files_independent_of_workers(tmp_path):
    # byte-identical report files with one worker and with two, where the
    # two get one chunk of replications each; the summary differs only in
    # the echoed worker count
    from mindpd.cli import EXIT_OK, main
    args = ["simulate", "--family", "exponential", "--generator",
            "0.9*exponential:1.0+0.1*exponential:0.1",
            "--study", "consistency", "--alpha", "0.5", "--n", "50,200",
            "--reps", "30", "--starts", "2", "--seed", "12"]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
    assert ((out1 / "replications.csv").read_bytes()
            == (out2 / "replications.csv").read_bytes())

    def summary(out, workers):
        return (out / "summary.json").read_bytes().replace(
            b'"workers": %d' % workers, b'"workers": ?')
    assert summary(out1, 1) == summary(out2, 2)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-50, 50), scale=st.floats(0.1, 10),
       seed=st.integers(0, 2 ** 32 - 1), alpha=st.sampled_from([0.0, 0.5]))
def test_batched_normal_fits_affine_equivariant(shift, scale, seed, alpha):
    # the normal MDPDE is location-scale equivariant (Basu, Harris, Hjort &
    # Jones 1998): shifting and scaling a batch's data shifts and scales
    # every row's estimate
    from mindpd.divergence import DpdConfig
    from mindpd.estimation import fit_batch
    from mindpd.families import Normal
    fam = Normal()
    data = np.random.default_rng(seed).standard_normal((6, 40))
    cfg, fit_cfg, seeds = DpdConfig(alpha=alpha), FitConfig(starts=1), [0] * 6
    solutions = fit_batch(fam, data, cfg, fit_cfg, seeds, False)
    moved = fit_batch(fam, shift + scale * data, cfg, fit_cfg, seeds, False)
    assert None not in solutions and None not in moved
    theta = np.array([s.theta_hat for s in solutions])
    moved = np.array([s.theta_hat for s in moved])
    assert np.allclose(moved[:, 0], shift + scale * theta[:, 0], rtol=1e-9,
                       atol=1e-9 * scale)
    assert np.allclose(moved[:, 1], scale * theta[:, 1], rtol=1e-9, atol=0)
