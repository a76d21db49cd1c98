"""Monte Carlo verification harness.

Generates clean or contaminated data, runs replicated fits, and computes the
statistics that check consistency (shrinking estimation error along an n
grid) and asymptotic normality (empirical covariance of sqrt(n)(theta_hat -
theta0) against the quadrature sandwich, a chi-square check on Mahalanobis
distances, and Wald coverage from per-replication empirical sandwiches).

Replication streams are counter-based (Philox keyed by master seed, cell
index and replication index), so serial and parallel executions produce
bitwise-identical reports.

The replications of a cell run in chunks: every replication of a chunk
draws its sample from its own stream, and one damped Newton
(``estimation.fit_batch``) runs the starts of all of them at once. A chunk
holds at most MAX_BATCH_POINTS observations over its samples and starts,
and whole chunks go to the worker pool. No replication's bytes depend on
which replications share its chunk, so the reports stay independent of the
worker count. Every replication's row then comes from ``_run_rep`` and
``fit``, which finalises the batched solution exactly as it finalises a fit
of its own: the same choice among starts, standard errors and converged,
boundary and excluded flags.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .asymptotics import dpd_projection, sandwich
from .divergence import DpdConfig
from .errors import MindpdError, StudyError
from .estimation import MAX_BATCH_POINTS, FitConfig, fit, fit_batch
from .families import Mixture, to_working
from .quadrature import DEFAULT_QUAD, QuadratureSpec

CONSISTENCY = "consistency"
NORMALITY = "normality"

_MASK64 = 2 ** 64 - 1
_FIT_SEED_SALT = 0x5851F42D4C957F2D


def chi2_cdf(x, df):
    """Chi-square CDF via the regularized incomplete gamma function."""
    return special.gammainc(df / 2.0, np.asarray(x, dtype=float) / 2.0)


def ks_distance(values, cdf):
    """Kolmogorov-Smirnov distance between the empirical CDF of values and
    a reference CDF callable."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.shape[0]
    f = cdf(v)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def replication_stream(master_seed, cell, rep):
    """Counter-based per-replication generator."""
    key = np.array([master_seed & _MASK64,
                    ((cell & 0xFFFFFFFF) << 32) | (rep & 0xFFFFFFFF)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw(gen, n, seed):
    """Public sampling entry point: n iid draws from the generator,
    reproducible for a given seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    return gen.sample(n, replication_stream(seed, 0, 0))


@dataclass(frozen=True)
class McConfig:
    alphas: tuple
    n_grid: tuple
    reps: int
    master_seed: int = 0
    theta_true: tuple = None        # known theta0 (model case); else projected
    workers: int = 0                # 0 -> MINDPD_WORKERS env var, default 1
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    fit: FitConfig = field(default_factory=lambda: FitConfig(starts=2))
    max_nonconv_rate: float = 0.02
    consistency_threshold: float = 0.25   # final median working-coord error
    cov_rel_tol: float = 0.10
    ks_tol: float = 0.05
    coverage_band: tuple = (0.93, 0.97)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if len(self.n_grid) == 0 or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must contain positive sizes")

    def resolved_workers(self):
        w = self.workers
        if w == 0:
            w = int(os.environ.get("MINDPD_WORKERS", "1"))
        return max(1, w)

    def echo(self):
        return {
            "alphas": [float(a) for a in self.alphas],
            "n_grid": [int(n) for n in self.n_grid],
            "reps": self.reps,
            "master_seed": self.master_seed,
            "theta_true": (None if self.theta_true is None
                           else [float(t) for t in self.theta_true]),
            "fit_starts": self.fit.starts,
            "max_nonconv_rate": self.max_nonconv_rate,
            "consistency_threshold": self.consistency_threshold,
            "cov_rel_tol": self.cov_rel_tol,
            "ks_tol": self.ks_tol,
            "coverage_band": list(self.coverage_band),
        }


def _fit_seed(cell, rep):
    return ((((cell & 0xFFFFFFFF) << 32) | (rep & 0xFFFFFFFF))
            ^ _FIT_SEED_SALT) & _MASK64


def _run_rep(args):
    """One replication's row. args are the replication's settings,
    optionally followed by its drawn sample and its fit_batch solution."""
    (gen, fam, alpha, n, master_seed, cell, rep, fit_cfg, quad, want_se,
     *drawn) = args
    if drawn:
        data, solution = drawn
    else:
        data = gen.sample(n, replication_stream(master_seed, cell, rep))
        solution = None
    cfg = DpdConfig(alpha=alpha, quad=quad)
    row = {"rep": rep, "converged": False, "boundary": False, "theta": None,
           "se": None, "grad_norm": None}
    try:
        res = fit(fam, data, cfg, replace(fit_cfg, seed=_fit_seed(cell, rep)),
                  solution=solution)
    except MindpdError:
        return row
    row["converged"] = bool(res.converged)
    row["boundary"] = bool(res.at_boundary)
    row["theta"] = [float(t) for t in res.theta_hat]
    row["grad_norm"] = float(res.gradient_norm)
    if want_se and res.standard_errors is not None:
        row["se"] = [float(s) for s in res.standard_errors]
    return row


def _run_cell(gen, fam, alpha, n, cell_index, cfg, want_se, executor):
    args = [(gen, fam, alpha, n, cfg.master_seed, cell_index, rep,
             cfg.fit, cfg.quad, want_se) for rep in range(cfg.reps)]
    size = min(max(1, MAX_BATCH_POINTS // (n * cfg.fit.starts)),
               -(-cfg.reps // cfg.resolved_workers()))
    chunks = [args[i:i + size] for i in range(0, cfg.reps, size)]
    parts = (map(_run_chunk, chunks) if executor is None
             else executor.map(_run_chunk, chunks))
    return [row for part in parts for row in part]


def _run_chunk(chunk):
    """Rows of consecutive replications of one cell, their starts run
    together."""
    (gen, fam, alpha, n, master_seed, cell, _, fit_cfg, quad,
     want_se) = chunk[0]
    data = np.stack([gen.sample(n, replication_stream(master_seed, cell,
                                                      args[6]))
                     for args in chunk])
    # a sample fit would refuse gets no solution; fit reports it
    valid = np.flatnonzero(np.all(fam.support.contains(data)
                                  & np.isfinite(data), axis=1)
                           & (n > fam.p))
    solutions = [None] * len(chunk)
    if valid.size:
        for i, solution in zip(valid, fit_batch(
                fam, data[valid], DpdConfig(alpha=alpha, quad=quad), fit_cfg,
                [_fit_seed(cell, chunk[i][6]) for i in valid], want_se)):
            solutions[i] = solution
    return [_run_rep(args + (x, solution))
            for args, x, solution in zip(chunk, data, solutions)]


def _target_by_alpha(gen, fam, cfg):
    """theta0 per alpha: supplied, in-model, or the projection argmax."""
    if cfg.theta_true is not None:
        t = np.asarray(cfg.theta_true, dtype=float)
        return {float(a): t for a in cfg.alphas}
    if len(gen.components) == 1 and gen.components[0][0].name == fam.name:
        t = np.asarray(gen.components[0][1], dtype=float)
        return {float(a): t for a in cfg.alphas}
    out = {}
    for a in cfg.alphas:
        out[float(a)] = dpd_projection(fam, gen,
                                       DpdConfig(alpha=float(a), quad=cfg.quad))
    return out


def _cell_estimates(fam, rows, theta0, interior_only):
    """Estimates entering the statistics.

    Consistency studies accept boundary-flagged fits (they are definite
    constrained estimates; dropping them would bias the error medians), and
    exclude only replications without an estimate. Normality studies need
    interior stationary points and exclude the rest.
    """
    if interior_only:
        usable = [r["converged"] for r in rows]
    else:
        usable = [r["theta"] is not None for r in rows]
    for r, ok in zip(rows, usable):
        r["excluded"] = not ok
    est = np.array([r["theta"] for r, ok in zip(rows, usable) if ok],
                   dtype=float)
    n_excluded = sum(1 for ok in usable if not ok)
    if est.size == 0:
        return est.reshape(0, fam.p), n_excluded, None
    z0 = to_working(fam, theta0)
    err = np.array([float(np.linalg.norm(to_working(fam, t) - z0))
                    for t in est])
    return est, n_excluded, err


@dataclass
class McReport:
    """Study results: per-cell statistics plus the raw replication rows."""

    study: str
    family: str
    param_names: tuple
    config: dict
    theta0_by_alpha: dict
    cells: list
    verdicts: dict

    def summary_dict(self):
        return {
            "study": self.study,
            "family": self.family,
            "param_names": list(self.param_names),
            "config": self.config,
            "theta0_by_alpha": {str(a): [float(t) for t in th]
                                for a, th in self.theta0_by_alpha.items()},
            "cells": [
                {k: v for k, v in cell.items() if k != "rows"}
                for cell in self.cells
            ],
            "verdicts": self.verdicts,
        }

    def replication_csv(self):
        cols = (["study", "family", "alpha", "n", "cell", "rep", "converged",
                 "boundary", "excluded"]
                + [f"est_{p}" for p in self.param_names]
                + [f"se_{p}" for p in self.param_names]
                + ["grad_norm"])
        lines = [",".join(cols)]
        for cell in self.cells:
            for r in cell["rows"]:
                theta = r["theta"] or [float("nan")] * len(self.param_names)
                se = r["se"] or [float("nan")] * len(self.param_names)
                gn = r["grad_norm"]
                vals = ([self.study, self.family, repr(float(cell["alpha"])),
                         str(cell["n"]), str(cell["cell"]), str(r["rep"]),
                         str(int(r["converged"])), str(int(r["boundary"])),
                         str(int(r.get("excluded", not r["converged"])))]
                        + [repr(float(t)) for t in theta]
                        + [repr(float(s)) for s in se]
                        + [repr(float(gn)) if gn is not None else "nan"])
                lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def run_consistency_study(gen, fam, cfg):
    """Median working-coordinate estimation error per sample size.

    The per-alpha verdict requires the medians to decrease monotonically
    along the n grid (undefined for a length-1 grid) and the final median to
    fall below the configured threshold."""
    theta0 = _target_by_alpha(gen, fam, cfg)
    executor = _make_executor(cfg)
    cells = []
    try:
        cell_index = 0
        for a in cfg.alphas:
            for n in cfg.n_grid:
                rows = _run_cell(gen, fam, float(a), int(n), cell_index, cfg,
                                 want_se=False, executor=executor)
                est, nexc, err = _cell_estimates(fam, rows, theta0[float(a)],
                                                 interior_only=False)
                _check_nonconv(nexc, cfg, fam, a, n)
                bias = (np.mean(est, axis=0) - theta0[float(a)]
                        if est.size else np.full(fam.p, np.nan))
                rmse = (np.sqrt(np.mean(
                    (est - theta0[float(a)]) ** 2, axis=0))
                    if est.size else np.full(fam.p, np.nan))
                cells.append({
                    "alpha": float(a), "n": int(n), "cell": cell_index,
                    "theta0": [float(t) for t in theta0[float(a)]],
                    "n_excluded": nexc,
                    "bias": [float(b) for b in bias],
                    "rmse": [float(r) for r in rmse],
                    "median_error": (float(np.median(err))
                                     if err is not None else float("nan")),
                    "rows": rows,
                })
                cell_index += 1
    finally:
        if executor is not None:
            executor.shutdown()

    verdicts = {}
    for a in cfg.alphas:
        meds = [c["median_error"] for c in cells if c["alpha"] == float(a)]
        if len(meds) < 2:
            verdicts[str(float(a))] = None  # trend undefined
            continue
        monotone = all(m2 < m1 for m1, m2 in zip(meds, meds[1:]))
        verdicts[str(float(a))] = ("pass" if monotone
                                   and meds[-1] < cfg.consistency_threshold
                                   else "fail")
    return McReport(study=CONSISTENCY, family=fam.name,
                    param_names=fam.param_names, config=cfg.echo(),
                    theta0_by_alpha=theta0, cells=cells, verdicts=verdicts)


def run_normality_study(gen, fam, cfg):
    """Distributional checks of sqrt(n)(theta_hat - theta0) against the
    model-based sandwich at theta0 under the true generator."""
    theta0 = _target_by_alpha(gen, fam, cfg)
    sigma_by_alpha = {
        float(a): sandwich(fam, theta0[float(a)], gen,
                           DpdConfig(alpha=float(a), quad=cfg.quad)).sigma
        for a in cfg.alphas}
    zq = float(special.ndtri(0.5 + cfg.fit.wald_level / 2))

    executor = _make_executor(cfg)
    cells = []
    try:
        cell_index = 0
        for a in cfg.alphas:
            t0 = theta0[float(a)]
            sigma = sigma_by_alpha[float(a)]
            for n in cfg.n_grid:
                rows = _run_cell(gen, fam, float(a), int(n), cell_index, cfg,
                                 want_se=True, executor=executor)
                est, nexc, _ = _cell_estimates(fam, rows, t0,
                                               interior_only=True)
                _check_nonconv(nexc, cfg, fam, a, n)
                z = np.sqrt(n) * (est - t0[None, :])
                emp_cov = (np.cov(z, rowvar=False, bias=False)
                           .reshape(fam.p, fam.p))
                denom = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
                cov_rel_err = np.abs(emp_cov - sigma) / denom
                m2 = np.einsum("ni,ni->n", z,
                               np.linalg.solve(sigma, z.T).T)
                ks = ks_distance(m2, lambda x: chi2_cdf(x, fam.p))
                coverage = _coverage(rows, t0, zq)
                cells.append({
                    "alpha": float(a), "n": int(n), "cell": cell_index,
                    "theta0": [float(t) for t in t0],
                    "sigma_model": sigma.tolist(),
                    "n_excluded": nexc,
                    "emp_cov": emp_cov.tolist(),
                    "cov_rel_err": cov_rel_err.tolist(),
                    "cov_rel_err_max": float(np.max(cov_rel_err)),
                    "ks_mahalanobis": ks,
                    "coverage": coverage,
                    "rows": rows,
                })
                cell_index += 1
    finally:
        if executor is not None:
            executor.shutdown()

    lo, hi = cfg.coverage_band
    verdicts = {}
    for c in cells:
        key = f"alpha={c['alpha']:g},n={c['n']}"
        ok = (c["cov_rel_err_max"] < cfg.cov_rel_tol
              and c["ks_mahalanobis"] < cfg.ks_tol
              and all(lo <= cov <= hi for cov in c["coverage"]))
        verdicts[key] = "pass" if ok else "fail"
    return McReport(study=NORMALITY, family=fam.name,
                    param_names=fam.param_names, config=cfg.echo(),
                    theta0_by_alpha=theta0, cells=cells, verdicts=verdicts)


def _coverage(rows, theta0, zq):
    p = theta0.shape[0]
    hits = np.zeros(p)
    count = 0
    for r in rows:
        if not r["converged"] or r["se"] is None:
            continue
        th = np.asarray(r["theta"])
        se = np.asarray(r["se"])
        hits += (np.abs(th - theta0) <= zq * se).astype(float)
        count += 1
    if count == 0:
        return [float("nan")] * p
    return [float(h / count) for h in hits]


def _check_nonconv(n_excluded, cfg, fam, alpha, n):
    if n_excluded / cfg.reps > cfg.max_nonconv_rate:
        raise StudyError(
            f"nonconvergence rate {n_excluded}/{cfg.reps} exceeds "
            f"{cfg.max_nonconv_rate:.0%} in cell family={fam.name} "
            f"alpha={alpha:g} n={n}")


def _make_executor(cfg):
    workers = cfg.resolved_workers()
    if workers <= 1:
        return None
    return ProcessPoolExecutor(max_workers=workers)


def efficiency_curve(fam, theta0, alpha_grid, quad=DEFAULT_QUAD):
    """Asymptotic relative efficiency per coordinate at the model, from
    quadrature sandwiches only (no simulation): the alpha=0 variance over
    the alpha variance."""
    theta0 = np.asarray(theta0, dtype=float)
    g = Mixture.single(fam, theta0)
    base = sandwich(fam, theta0, g, DpdConfig(alpha=0.0, quad=quad)).sigma
    rows = []
    for a in alpha_grid:
        sig = sandwich(fam, theta0, g, DpdConfig(alpha=float(a),
                                                 quad=quad)).sigma
        are = np.diag(base) / np.diag(sig)
        rows.append({"alpha": float(a), "are": [float(x) for x in are]})
    return rows
