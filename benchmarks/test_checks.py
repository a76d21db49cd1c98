"""The benchmark's checkers accept genuine program outputs and reject
slightly perturbed ones.

Run from the repository root:  python3 -m pytest -q benchmarks/test_checks.py
(outside the tier-1 collection, which is limited to tests/).
"""
import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from mindpd import asymptotics, cli, families, montecarlo  # noqa: E402
from mindpd.divergence import DpdConfig  # noqa: E402


def _cli(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _nudge(doc, path, factor=1.0, shift=0.0):
    """Copy of doc with the number at path multiplied by factor, then
    shifted."""
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = node[last] * factor + shift
    return doc


@pytest.fixture(scope="module")
def gpd_fit(tmp_path_factory):
    d = tmp_path_factory.mktemp("fit")
    rng = np.random.default_rng(7)
    x = 1.5 * np.expm1(-0.25 * np.log1p(-rng.random(400))) / 0.25
    (d / "x.csv").write_text("x\n" + "\n".join(repr(float(v)) for v in x)
                             + "\n")
    _cli(["fit", "--family", "gpd", "--data", str(d / "x.csv"), "--alpha",
          "0.5", "--starts", "2", "--out", str(d / "fit.json")])
    return json.loads((d / "fit.json").read_text()), x


def test_fit_checker(gpd_fit):
    doc, x = gpd_fit
    assert checks.check_fit(doc, "gpd", x, 0.5) == []
    for j in range(2):
        moved = _nudge(doc, ("theta_hat", j), shift=1e-3)
        assert checks.check_fit(moved, "gpd", x, 0.5)
    assert checks.check_fit(_nudge(doc, ("objective_value",), 1 + 1e-8),
                            "gpd", x, 0.5)
    assert checks.check_fit(_nudge(doc, ("standard_errors", 0), -1),
                            "gpd", x, 0.5)
    asym = _nudge(doc, ("sandwich", "K", 0, 1), 1 + 1e-6)
    assert checks.check_fit(asym, "gpd", x, 0.5)


def test_poisson_objective_checker(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.poisson(3.0, 500)
    (tmp_path / "x.csv").write_text("x\n" + "\n".join(map(str, x)) + "\n")
    _cli(["fit", "--family", "poisson", "--data", str(tmp_path / "x.csv"),
          "--alpha", "0.5", "--out", str(tmp_path / "fit.json")])
    doc = json.loads((tmp_path / "fit.json").read_text())
    x = x.astype(float)
    assert checks.check_fit(doc, "poisson", x, 0.5) == []
    assert checks.check_fit(_nudge(doc, ("theta_hat", 0), shift=1e-3),
                            "poisson", x, 0.5)


def _study(tmp_path, study, n_grid, reps):
    spec = {"family": "normal", "theta": (0.5, 2.0), "study": study,
            "alphas": (0.0, 0.5), "n_grid": n_grid, "reps": reps, "seed": 11}
    _cli(["simulate", "--family", "normal", "--generator=normal:0.5,2.0",
          "--theta-true=0.5,2.0", "--study", study, "--alpha", "0,0.5",
          "--n", ",".join(map(str, n_grid)), "--reps", str(reps),
          "--starts", "1", "--seed", "11", "--out", str(tmp_path)])
    csv = (tmp_path / "replications.csv").read_text()
    summary = json.loads((tmp_path / "summary.json").read_text())

    def regenerate(cell, rep, n):
        gen = families.Mixture.single(families.get_family("normal"),
                                      np.array([0.5, 2.0]))
        return gen.sample(n, montecarlo.replication_stream(11, cell, rep))
    return csv, summary, spec, regenerate


def _edit_rows(csv, fn):
    lines = csv.splitlines()
    cols = lines[0].split(",")
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        row = dict(zip(cols, line.split(",")))
        fn(i, row)
        out.append(",".join(row[c] for c in cols))
    return "\n".join(out) + "\n"


def test_consistency_checker(tmp_path):
    csv, summary, spec, regen = _study(tmp_path, "consistency", (50, 800), 12)
    assert checks.check_study(csv, summary, spec, regen) == []

    def nudge_first(i, row):
        if i == 0:
            row["est_mu"] = repr(float(row["est_mu"]) + 1e-6)
    assert checks.check_study(_edit_rows(csv, nudge_first), summary, spec,
                              regen)

    def exclude(i, row):
        if i == 5:
            row["excluded"] = "1"
    assert checks.check_study(_edit_rows(csv, exclude), summary, spec, regen)

    def swap_n(i, row):
        row["n"] = {"50": "800", "800": "50"}[row["n"]]
    assert checks.check_study(_edit_rows(csv, swap_n), summary, spec, regen)


def test_normality_checker(tmp_path):
    csv, summary, spec, regen = _study(tmp_path, "normality", (200,), 60)
    assert checks.check_study(csv, summary, spec, regen) == []

    def inflate(i, row):
        if row["alpha"] == "0.5":
            row["est_sigma"] = repr(2.0 + 3 * (float(row["est_sigma"]) - 2.0))
    assert checks.check_study(_edit_rows(csv, inflate), summary, spec, regen)


def test_sweep_checker(tmp_path):
    for fam, theta in (("normal", "0.3,1.2"), ("gpd", "0.2,1.5")):
        out = tmp_path / f"{fam}.csv"
        _cli(["sweep", "--family", fam, f"--theta={theta}", "--out",
              str(out)])
        text = out.read_text()
        point = [float(v) for v in theta.split(",")]
        assert checks.check_sweep(text, fam, point) == []
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[3] = ",".join(cells)
        assert checks.check_sweep("\n".join(lines) + "\n", fam, point)


def test_diagnose_checker(tmp_path):
    out = tmp_path / "d.json"
    _cli(["diagnose", "--family", "normal", "--theta=0.3,1.2", "--alpha",
          "0.5", "--out", str(out)])
    doc = json.loads(out.read_text())
    g = [("normal", (0.3, 1.2), 1.0)]
    expect = {"overall": "pass", "interchange_below_tol": True}
    assert checks.check_diagnose(doc, "normal", (0.3, 1.2), g, 0.5,
                                 expect) == []
    for key in ("info_integral_model", "info_integral_true"):
        assert checks.check_diagnose(_nudge(doc, (key,), 1 + 1e-5), "normal",
                                     (0.3, 1.2), g, 0.5)
    assert checks.check_diagnose(_nudge(doc, ("score_bound_sups", 0), 1.01),
                                 "normal", (0.3, 1.2), g, 0.5)
    flipped = copy.deepcopy(doc)
    flipped["verdicts"]["overall"] = "warn"
    assert checks.check_diagnose(flipped, "normal", (0.3, 1.2), g, 0.5,
                                 expect)


def _projection(fam, g, alpha):
    mix = families.Mixture([(families.get_family(f), np.array(t), w)
                            for f, t, w in g])
    cfg = DpdConfig(alpha=alpha)
    theta = asymptotics.dpd_projection(families.get_family(fam), mix, cfg)
    sw = asymptotics.sandwich(families.get_family(fam), theta, mix, cfg)
    return {"theta": theta.tolist(), "K": sw.K.tolist(), "J": sw.J.tolist(),
            "sigma": sw.sigma.tolist()}


def test_projection_checker():
    g = [("normal", (0.0, 1.0), 0.9), ("normal", (10.0, 1.0), 0.1)]
    doc = _projection("normal", g, 0.5)
    assert checks.check_projection(doc, "normal", g, 0.5) == []
    for j in range(2):
        assert checks.check_projection(_nudge(doc, ("theta", j), shift=1e-3),
                                       "normal", g, 0.5)
    assert checks.check_projection(_nudge(doc, ("sigma", 1, 1), 1 + 1e-5),
                                   "normal", g, 0.5)
    doc0 = _projection("normal", g, 0.0)
    match = (1.0, 10 ** 0.5)
    assert checks.check_projection(doc0, "normal", g, 0.0, match) == []
    assert checks.check_projection(_nudge(doc0, ("theta", 1), 1 + 1e-6),
                                   "normal", g, 0.0, match)


def test_model_sandwich_checker():
    theta = np.array([0.2, 1.5])
    f = families.get_family("gpd")
    sw = asymptotics.sandwich(f, theta, families.model_density(f, theta),
                              DpdConfig(alpha=0.0))
    doc = {"sigma": sw.sigma.tolist()}
    assert checks.check_model_sandwich(doc, "gpd", theta) == []
    assert checks.check_model_sandwich(_nudge(doc, ("sigma", 0, 1), 1 + 1e-6),
                                       "gpd", theta)


def test_reference_gpd_derivatives():
    """The hand-written gpd score and information match central
    differences of scipy's log-density."""
    theta = np.array([0.25, 1.3])
    x = np.array([0.01, 0.5, 2.0, 30.0])
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (ref.logpdf("gpd", x, theta + e)
              - ref.logpdf("gpd", x, theta - e)) / (2 * h)
        assert np.allclose(ref.score("gpd", x, theta)[:, j], fd, rtol=1e-7,
                           atol=1e-9)
        fd_i = -(ref.score("gpd", x, theta + e)
                 - ref.score("gpd", x, theta - e)) / (2 * h)
        assert np.allclose(ref.info("gpd", x, theta)[:, j, :], fd_i,
                           rtol=1e-6, atol=1e-8)


def test_committed_efficiency_curve_matches_closed_form():
    path = os.path.join(ROOT, "results", "efficiency_normal.csv")
    if not os.path.exists(path):
        pytest.skip("results/efficiency_normal.csv is not present")
    rows = checks.read_csv(open(path).read())
    row = next(r for r in rows if float(r["alpha"]) == 0.5)
    assert abs(float(row["are_mu"]) - ref.normal_are_mu(0.5)) < 7e-14
