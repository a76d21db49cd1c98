"""The three benchmark workloads.

A workload is a round: a fixed list of operations, built once from the
benchmark seed and then repeated unchanged. The program receives only what
an operation hands it: CSV files, generator specs, parameter points and
``--seed`` values. Samples are drawn here with numpy, apart from the
program.

- fit-heavy-tail: one operation is one ``mindpd fit`` of one CSV (gpd and
  poisson, alpha > 0, clean and 10%-contaminated, rates 3 to 200).
  gpd has no closed form for its score-power terms, so its fits run
  through quadrature; poisson fits go through the discrete sums.
- study-closed-form: one operation is one ``mindpd simulate`` (consistency
  or normality, normal and exponential, alpha 0 and 0.5). Every model
  integral has a closed form, so the time goes to per-replication
  overhead in the optimiser, the criterion and the Monte Carlo loop.
- population: one operation is one model-level computation without data:
  ``mindpd diagnose`` and ``mindpd sweep --theta``, and the projection then
  sandwich step of a contaminated-generator study, called as library
  functions. Integrands are weighted by mixtures, fused into vectors, or
  non-smooth (the Lipschitz envelope).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

ALPHAS_STUDY = (0.0, 0.5)


@dataclass
class Op:
    """One benchmark operation: ``run`` returns an exit code; ``outputs``
    are the files it writes; ``check(files, stdout)`` returns problems."""

    name: str
    run: Callable[[], int]
    outputs: list
    check: Callable[[dict, str], list]
    fits: int = 0                 # fit outputs the operation writes


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _round(x, digits=4):
    return float(f"{x:.{digits}g}")


def _write_csv(path, values, integer):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x\n")
        if integer:
            fh.write("\n".join(str(int(v)) for v in values))
        else:
            fh.write("\n".join(repr(float(v)) for v in values))
        fh.write("\n")


def _gpd_sample(rng, xi, beta, n):
    u = rng.random(n)
    return beta * np.expm1(-xi * np.log1p(-u)) / xi


def _contaminate(rng, clean, outlier, n, share=0.1):
    """Each observation comes from outlier(k) with probability share."""
    pick = rng.random(n) < share
    x = clean(n)
    k = int(np.count_nonzero(pick))
    if k:
        x[pick] = outlier(k)
    return x


def _cli(cli, argv):
    # looked up at call time so that a traced run sees the patched main
    return lambda: cli.main(list(argv))


# ----------------------------------------------------------------------
# fit-heavy-tail
# ----------------------------------------------------------------------

def fit_heavy_tail(seed, work, mp):
    rng = np.random.default_rng([seed, 1])
    gpd = lambda xi, beta: (lambda k: _gpd_sample(rng, xi, beta, k))
    poi = lambda lam: (lambda k: rng.poisson(lam, k).astype(float))
    cases = []
    # The parameter points are fixed and the seed draws the samples; each
    # setting is fitted on two samples, at alpha 0.5 and 0.25 for gpd, so
    # that a round averages over the sample-to-sample cost of a fit.
    for xi, beta in ((0.2, 0.8), (0.3, 1.2), (0.4, 1.6)):
        for n in (1000, 3000):
            for contam in (False, True):
                draw = gpd(xi, beta)
                if contam:
                    draw = (lambda d, o: lambda k: _contaminate(rng, d, o, k))(
                        draw, gpd(xi, 10 * beta))
                for alpha in (0.5, 0.25):
                    name = (f"gpd-xi{xi}-{'contam' if contam else 'clean'}"
                            f"-n{n}-a{alpha}")
                    cases.append((name, "gpd", draw(n), alpha, 2))
    # Poisson fits at rates of 10^3 and more fail to converge on some
    # samples, and the optimiser can wander to rates whose summation window
    # (always from 0) exhausts memory: from a second, perturbed start at
    # rates above ~10, and from the first start on contaminated samples at
    # rate 200. Fits above rate 3 therefore run with one start, and only
    # clean samples reach rate 200.
    for lam, n, starts, contaminated in ((3.0, 500, 2, (False, True)),
                                         (20.0, 1000, 1, (False, True)),
                                         (200.0, 1000, 1, (False, False))):
        for i, contam in enumerate(contaminated):
            draw = poi(lam)
            if contam:
                draw = (lambda d, o: lambda k: _contaminate(rng, d, o, k))(
                    draw, poi(5 * lam))
            for j in range(2):
                name = (f"poisson-rate{lam:g}-"
                        f"{'contam' if contam else 'clean'}-n{n}-{2 * i + j}")
                cases.append((name, "poisson", draw(n), 0.5, starts))
    ops = []
    for i, (name, fam, data, alpha, starts) in enumerate(cases):
        csv = os.path.join(work, f"{name}.csv")
        _write_csv(csv, data, integer=fam == "poisson")
        out = os.path.join(work, f"{name}.json")
        argv = ["fit", "--family", fam, "--data", csv, "--alpha", repr(alpha),
                "--starts", str(starts), "--seed", str(seed * 100 + i),
                "--out", out]

        def check(files, stdout, out=out, fam=fam, data=data, alpha=alpha):
            return checks.check_fit(json.loads(files[out]), fam, data, alpha)
        ops.append(Op(name, _cli(mp.cli, argv), [out], check, fits=1))
    warmup = [ops[0], ops[-1]]
    return ops, warmup


# ----------------------------------------------------------------------
# study-closed-form
# ----------------------------------------------------------------------

def study_closed_form(seed, work, mp):
    # The model points are fixed: the cost of a study depends on them, while
    # the hundreds of replications an operation runs average out the cost of
    # single samples. The seed reaches the program as --seed, from which it
    # draws every replication.
    # Operations are kept short (0.2-0.7 s) so that each one's fastest run
    # misses the slow phases of a shared machine.
    cases = []
    for fam, consistency_theta, normality_theta in (
            ("normal", (0.5, 1.5), (-0.3, 0.8)),
            ("exponential", (1.5,), (0.7,))):
        cases.append((f"{fam}-consistency", fam, consistency_theta,
                      "consistency", (50, 800), 40))
        for k in range(2):
            cases.append((f"{fam}-normality-{k}", fam, normality_theta,
                          "normality", (200,), 150))
    ops = []
    for i, (name, fam, theta, study, n_grid, reps) in enumerate(cases):
        out = os.path.join(work, name)
        prog_seed = seed * 100 + i
        argv = ["simulate", "--family", fam,
                f"--generator={fam}:{_fmt(theta)}",
                f"--theta-true={_fmt(theta)}", "--study", study,
                "--alpha", _fmt(ALPHAS_STUDY),
                "--n", ",".join(map(str, n_grid)), "--reps", str(reps),
                "--starts", "1", "--workers", "1", "--seed", str(prog_seed),
                "--out", out]
        spec = {"family": fam, "theta": theta, "study": study,
                "alphas": ALPHAS_STUDY, "n_grid": n_grid, "reps": reps,
                "seed": prog_seed}
        csv = os.path.join(out, "replications.csv")
        summary = os.path.join(out, "summary.json")

        def regenerate(cell, rep, n, fam=fam, theta=theta, prog_seed=prog_seed):
            gen = mp.families.Mixture.single(mp.families.get_family(fam),
                                             np.array(theta))
            return gen.sample(n, mp.montecarlo.replication_stream(
                prog_seed, cell, rep))

        def check(files, stdout, csv=csv, summary=summary, spec=spec,
                  regenerate=regenerate):
            return checks.check_study(files[csv].decode(),
                                      json.loads(files[summary]), spec,
                                      regenerate)
        ops.append(Op(name, _cli(mp.cli, argv), [csv, summary],
                      check))
    warmup = [ops[0]]
    return ops, warmup


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------

def _projection_op(name, mp, work, fam, g, alpha, moment_match=None):
    """dpd_projection then sandwich, the target step of a contaminated
    study, called through the library."""
    out = os.path.join(work, f"{name}.json")

    def run():
        F = mp.families
        mix = F.Mixture([(F.get_family(f), np.array(t), w) for f, t, w in g])
        cfg = mp.divergence.DpdConfig(alpha=alpha)
        theta = mp.asymptotics.dpd_projection(F.get_family(fam), mix, cfg)
        sw = mp.asymptotics.sandwich(F.get_family(fam), theta, mix, cfg)
        _dump(out, {"theta": theta.tolist(), "K": sw.K.tolist(),
                    "J": sw.J.tolist(), "sigma": sw.sigma.tolist()})
        return 0

    def check(files, stdout):
        return checks.check_projection(json.loads(files[out]), fam, g, alpha,
                                       moment_match)
    return Op(name, run, [out], check)


def _model_sandwich_op(mp, work, points):
    """The alpha = 0 sandwich at model points, one per family."""
    out = os.path.join(work, "model-sandwich-a0.json")

    def run():
        F = mp.families
        doc = {}
        for fam, theta in points:
            f = F.get_family(fam)
            sw = mp.asymptotics.sandwich(
                f, np.array(theta), F.model_density(f, np.array(theta)),
                mp.divergence.DpdConfig(alpha=0.0))
            doc[fam] = {"sigma": sw.sigma.tolist()}
        _dump(out, doc)
        return 0

    def check(files, stdout):
        doc = json.loads(files[out])
        problems = []
        for fam, theta in points:
            problems += checks.check_model_sandwich(doc[fam], fam, theta)
        return problems
    return Op("model-sandwich-a0", run, [out], check)


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def population(seed, work, mp):
    # The seed draws the model points from narrow ranges: the quadrature
    # work of an operation moves with them. The large Poisson rate is fixed
    # because peak memory grows with it.
    rng = np.random.default_rng([seed, 3])
    mu, sigma = _round(rng.uniform(-0.5, 0.5)), _round(rng.uniform(0.9, 1.1))
    xi, beta = _round(rng.uniform(0.18, 0.22)), _round(rng.uniform(1.3, 1.7))
    lam = _round(rng.uniform(2.8, 3.2))
    rate = _round(rng.uniform(0.8, 1.2))
    lam_big = 1e4
    normal, gpd, poisson = (mu, sigma), (xi, beta), (lam,)
    contam = {
        "normal": [("normal", normal, 0.9),
                   ("normal", (mu + 10 * sigma, sigma), 0.1)],
        "gpd": [("gpd", gpd, 0.9), ("gpd", (xi, 10 * beta), 0.1)],
        "poisson": [("poisson", poisson, 0.9), ("poisson", (5 * lam,), 0.1)],
        "exponential": [("exponential", (rate,), 0.9),
                        ("exponential", (rate / 10,), 0.1)],
    }
    points = {"normal": normal, "gpd": gpd, "poisson": poisson,
              "exponential": (rate,), "normal_loc": (mu,)}

    def spec(g):
        return "+".join(f"{w!r}*{f}:{_fmt(t)}" for f, t, w in g)

    ops = []
    diagnose = [
        # name, family, theta, alpha, generator or None, required verdicts
        ("diagnose-normal-a0.5", "normal", normal, 0.5, None,
         {"overall": "pass", "interchange_below_tol": True}),
        ("diagnose-normal-a0", "normal", normal, 0.0, None,
         {"score_bound": "warn"}),
        ("diagnose-gpd-a0.5", "gpd", gpd, 0.5, None, None),
        ("diagnose-poisson-a0.5", "poisson", poisson, 0.5, None, None),
        ("diagnose-normal-contam-a0.5", "normal", normal, 0.5,
         contam["normal"], None),
        ("diagnose-gpd-contam-a0.5", "gpd", gpd, 0.5, contam["gpd"], None),
        ("diagnose-poisson-contam-a0.5", "poisson", poisson, 0.5,
         contam["poisson"], None),
        ("diagnose-poisson-rate1e4-a0.5", "poisson", (lam_big,), 0.5, None,
         None),
        # these three, with projection-exponential and the alpha = 0
        # operations, cost 0.1-0.3 s each: the median latency falls among
        # operations of like cost instead of in the gap between clusters
        ("diagnose-exponential-a0.5", "exponential", (rate,), 0.5, None,
         None),
        ("diagnose-exponential-contam-a0.5", "exponential", (rate,), 0.5,
         contam["exponential"], None),
        ("diagnose-normal_loc-a0.5", "normal_loc", (mu,), 0.5, None, None),
    ]
    for name, fam, theta, alpha, g, expect in diagnose:
        out = os.path.join(work, f"{name}.json")
        argv = ["diagnose", "--family", fam, f"--theta={_fmt(theta)}",
                "--alpha", repr(alpha), "--out", out]
        if g is not None:
            argv.append(f"--generator={spec(g)}")
        g_ref = g or [(fam, theta, 1.0)]

        def check(files, stdout, out=out, fam=fam, theta=theta, alpha=alpha,
                  g=g_ref, expect=expect):
            return checks.check_diagnose(json.loads(files[out]), fam, theta,
                                         g, alpha, expect)
        ops.append(Op(name, _cli(mp.cli, argv), [out], check))
    sweeps = [(f"sweep-{f}", f, points[f]) for f in
              ("normal", "normal_loc", "exponential", "poisson", "gpd")]
    # the Poisson sums always start at 0, which a large rate exposes
    sweeps.append(("sweep-poisson-rate1e4", "poisson", (lam_big,)))
    for name, fam, theta in sweeps:
        out = os.path.join(work, f"{name}.csv")
        argv = ["sweep", "--family", fam, f"--theta={_fmt(theta)}",
                "--out", out]

        def check(files, stdout, out=out, fam=fam, theta=theta):
            return checks.check_sweep(files[out].decode(), fam, theta)
        ops.append(Op(name, _cli(mp.cli, argv),
                      [out, out + ".config.json"], check))
    ops.append(_projection_op("projection-normal-contam-a0.5", mp, work,
                              "normal", contam["normal"], 0.5))
    ops.append(_projection_op("projection-gpd-contam-a0.5", mp, work,
                              "gpd", contam["gpd"], 0.5))
    ops.append(_projection_op("projection-exponential-contam-a0.5", mp, work,
                              "exponential", contam["exponential"], 0.5))
    ops.append(_projection_op("projection-normal-contam-a0", mp, work,
                              "normal", contam["normal"], 0.0,
                              moment_match=(mu + sigma, sigma * 10 ** 0.5)))
    ops.append(_model_sandwich_op(mp, work, [
        (f, points[f]) for f in ("normal", "exponential", "poisson", "gpd")]))
    warmup = [op for op in ops if op.name.startswith("sweep-")][:2]
    return ops, warmup


WORKLOADS = {
    "fit-heavy-tail": fit_heavy_tail,
    "study-closed-form": study_closed_form,
    "population": population,
}
