"""Fitting: multi-start maximization of the empirical objective with
analytic derivatives, plus sandwich standard errors and Wald intervals.

Optimization runs in working (unconstrained) coordinates; scale-like
coordinates are floored at log(1e-8), and a fit that ends on that floor is
reported with a boundary flag instead of pretending to have converged. The
first start is anchored at the maximum likelihood fit (or a caller-supplied
warm start); further starts perturb the anchor with deterministic
per-start streams.

``fit_batch`` runs the starts of many samples of one size at once, with
one damped Newton (``optimize.maximize``) over every (sample, start) pair,
and returns one ``Solution`` per sample; ``fit`` finalises a Solution into
a FitResult, and without one runs ``fit_batch`` on its sample alone. So a
single fit and a Monte Carlo replication share the solver, the choice
among starts, the standard-error rule and the FitResult. The objective is
evaluated through ``_WorkingObjective``, whose Hessian comes from one
kernel evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# empirical_sandwich and the objective views are bound here for
# benchmarks/tracing.py, which patches these names in this module
from .asymptotics import (SandwichCov, empirical_sandwich,  # noqa: F401
                          empirical_sandwiches)
from .divergence import (DpdConfig, criterion_kernel,
                         objective,  # noqa: F401
                         objective_gradient,  # noqa: F401
                         objective_hessian,  # noqa: F401
                         objective_value_and_gradient)  # noqa: F401
from .errors import (EstimationError, NonconvergenceError,
                     NumericalError)
from .families import (from_working, to_working, working_curvature,
                       working_jacobian)
from .optimize import maximize
from .quadrature import DEFAULT_QUAD

SCALE_FLOOR_LOG = math.log(1e-8)

# observations, over all samples and starts, that one objective call holds
MAX_BATCH_POINTS = 2 ** 16


@dataclass(frozen=True)
class FitConfig:
    starts: int = 5
    grad_tol: float = 1e-8          # on the working-coordinate gradient norm
    step_tol: float = 1e-10
    seed: int = 0                   # base of the per-start perturbation streams
    perturb_scale: float = 0.5
    wald_level: float = 0.95
    cond_cap: float = 1e12

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("need at least one start")
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.wald_level < 1:
            raise ValueError("wald_level must be in (0, 1)")


@dataclass
class FitResult:
    family: str
    alpha: float
    n: int
    theta_hat: np.ndarray           # natural coordinates
    objective_value: float
    gradient_norm: float            # working coordinates
    converged: bool
    at_boundary: bool
    converged_starts: list
    n_starts_agreeing: int
    sandwich: object = None         # SandwichCov or None
    standard_errors: np.ndarray = None
    wald_level: float = 0.95
    wald_intervals: np.ndarray = None   # (p, 2)
    se_unavailable_reason: str = None
    start_trace: list = field(default_factory=list)

    def to_dict(self):
        d = {
            "family": self.family,
            "alpha": self.alpha,
            "n": self.n,
            "theta_hat": [float(t) for t in self.theta_hat],
            "objective_value": self.objective_value,
            "gradient_norm": self.gradient_norm,
            "converged": self.converged,
            "at_boundary": self.at_boundary,
            "converged_starts": list(self.converged_starts),
            "n_starts_agreeing": self.n_starts_agreeing,
            "wald_level": self.wald_level,
            "standard_errors": (None if self.standard_errors is None
                                else [float(s) for s in self.standard_errors]),
            "wald_intervals": (None if self.wald_intervals is None
                               else [[float(a), float(b)]
                                     for a, b in self.wald_intervals]),
            "se_unavailable_reason": self.se_unavailable_reason,
            "start_trace": list(self.start_trace),
        }
        if self.sandwich is not None:
            d["sandwich"] = {
                "K": self.sandwich.K.tolist(),
                "J": self.sandwich.J.tolist(),
                "U": self.sandwich.U.tolist(),
                "sigma": self.sandwich.sigma.tolist(),
                "provenance": self.sandwich.provenance,
                "cond_J": self.sandwich.cond_J,
            }
        else:
            d["sandwich"] = None
        return d

    @classmethod
    def from_dict(cls, d):
        sw = None
        if d.get("sandwich") is not None:
            s = d["sandwich"]
            sw = SandwichCov(K=np.array(s["K"]), J=np.array(s["J"]),
                             U=np.array(s["U"]), sigma=np.array(s["sigma"]),
                             provenance=s["provenance"], cond_J=s["cond_J"])
        return cls(
            family=d["family"], alpha=d["alpha"], n=d["n"],
            theta_hat=np.array(d["theta_hat"], dtype=float),
            objective_value=d["objective_value"],
            gradient_norm=d["gradient_norm"], converged=d["converged"],
            at_boundary=d["at_boundary"],
            converged_starts=list(d["converged_starts"]),
            n_starts_agreeing=d["n_starts_agreeing"], sandwich=sw,
            standard_errors=(None if d["standard_errors"] is None
                             else np.array(d["standard_errors"])),
            wald_level=d["wald_level"],
            wald_intervals=(None if d["wald_intervals"] is None
                            else np.array(d["wald_intervals"])),
            se_unavailable_reason=d["se_unavailable_reason"],
            start_trace=list(d["start_trace"]))


def _working_bounds(fam):
    return np.array([SCALE_FLOOR_LOG if t == "log" else -np.inf
                     for t in fam.transforms])


class _WorkingObjective:
    """The empirical objectives of the samples data (R, n) in working
    coordinates, as maximize takes them: evaluate(rows, z) gives the values
    (k,) and gradients (k, p) of the objectives of data[rows] at the points
    z (k, p), and hessian(rows, z) their Hessians (k, p, p), each from one
    kernel evaluation.

    A call of more rows than MAX_BATCH_POINTS observations allow runs in
    groups of rows, so the working arrays stay bounded however many starts
    a large sample has. Infeasible points read as -inf, and a quadrature
    failure at a transient extreme theta reads as -inf, so the line search
    retreats; a failed Hessian reads as NaN. A failing call is repeated row
    by row, so that only the rows that fail read so. No row's bytes depend
    on the rows that share its call. (Methods, not closures: a closure that
    calls itself is a reference cycle, which would hold the samples until
    the garbage collector runs.)
    """

    def __init__(self, fam, data, cfg):
        self.fam, self.data, self.cfg = fam, data, cfg
        self.group = max(1, MAX_BATCH_POINTS // data.shape[-1])

    def evaluate(self, rows, z):
        if z.shape[0] > self.group:
            return _in_groups(self.evaluate, rows, z, self.group)
        fam = self.fam
        theta = from_working(fam, z)
        ok = fam.feasible(theta)
        value = np.full(z.shape[0], -np.inf)
        grad = np.zeros(z.shape)
        if not np.any(ok):
            return value, grad
        try:
            m, dm = criterion_kernel(fam, theta[ok], self.cfg, (0, 1))(
                self.data[rows[ok]])[:2]
        except NumericalError:
            if z.shape[0] > 1:
                return _in_groups(self.evaluate, rows, z, 1)
            return value, grad
        value[ok] = np.mean(m, axis=-1)
        grad[ok] = np.mean(dm, axis=-2) * working_jacobian(fam, theta[ok])
        return value, grad

    def hessian(self, rows, z):
        if z.shape[0] > self.group:
            return _in_groups(self.hessian, rows, z, self.group)
        fam = self.fam
        theta = from_working(fam, z)
        try:
            _, dm, H = criterion_kernel(fam, theta, self.cfg, (1, 2))(
                self.data[rows])[:3]
        except NumericalError:
            if z.shape[0] > 1:
                return _in_groups(self.hessian, rows, z, 1)
            return np.full(z.shape + z.shape[-1:], np.nan)
        jac = working_jacobian(fam, theta)
        curvature = np.mean(dm, axis=-2) * working_curvature(fam, theta)
        return (jac[..., :, None] * H * jac[..., None, :]
                + np.eye(fam.p) * curvature[..., None, :])


def _in_groups(fn, rows, z, size):
    """fn(rows, z) evaluated on groups of size rows, results stacked."""
    parts = [fn(rows[i:i + size], z[i:i + size])
             for i in range(0, z.shape[0], size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _start_point(anchor_z, s, fit_cfg, seed, lower):
    """Start s of a fit: the anchor itself, or for s > 0 the anchor
    perturbed with the deterministic stream of (seed, s)."""
    if s == 0:
        return anchor_z.copy()
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & (2 ** 64 - 1), s], dtype=np.uint64)))
    z0 = anchor_z + fit_cfg.perturb_scale * rng.standard_normal(
        anchor_z.shape[-1])
    return np.maximum(z0, lower)


def _pick(value, converged, z, anchor_z):
    """The chosen start of each fit: the best converged value, ties within
    1e-10 going to the start nearest the anchor. value and converged are
    (..., S), z (..., S, p) and anchor_z (..., p)."""
    best = np.max(np.where(converged, value, -np.inf), axis=-1)
    tied = converged & (value >= best[..., None] - 1e-10)
    distance = np.where(
        tied, np.linalg.norm(z - anchor_z[..., None, :], axis=-1), np.inf)
    return np.argmin(distance, axis=-1)


@dataclass
class Solution:
    """What the starts of one fit reached, as fit finalises it."""

    results: list                   # AscentResult per start
    best: int                       # index of the chosen start; None
                                    # where no start is acceptable, and
                                    # fit raises NonconvergenceError
    theta_hat: np.ndarray
    value: float                    # the objective at theta_hat
    sandwich: object                # SandwichCov, the EstimationError why
                                    # there is none, or None on the floor


def fit(fam, sample, cfg, fit_cfg=FitConfig(), anchor=None, solution=None):
    """Minimum density power divergence fit.

    Maximizes the empirical objective over all starts by the batched Newton
    of fit_batch, here on the batch of one sample; the returned point is at
    least as good as every point its start reached (the numerical
    near-maximizer contract). Standard errors come from the empirical
    sandwich at theta_hat; if its J is singular they are marked unavailable
    rather than failing the fit. Raises NonconvergenceError, with the
    start trace as detail, where no start converged or ended on the floor.

    anchor: a warm start (natural coordinates) in place of the maximum
    likelihood anchor. solution: this sample's entry of a fit_batch that
    has already run the starts; fit then only finalises it.
    """
    data = fam.validate_data(sample)
    n = data.shape[0]
    if n < fam.p + 1:
        raise EstimationError(
            f"need at least p+1={fam.p + 1} observations, got {n}")
    if solution is None:
        solution, = fit_batch(fam, data[None], cfg, fit_cfg, [fit_cfg.seed],
                              anchor=anchor)
    if solution.best is None:
        raise NonconvergenceError(
            f"no start converged for {fam.name} at alpha={cfg.alpha:g}",
            detail=_start_trace(solution.results))
    return _finalize(fam, data, cfg, fit_cfg, solution)


def fit_batch(fam, data, cfg, fit_cfg, seeds, want_se=True, anchor=None):
    """The starts of many fits at once, one fit per row of the validated
    samples data (R, n) with n > p.

    The anchor is the warm start ``anchor`` (natural coordinates, one point
    or one per row) if given, else the alpha = 0 fit, reached by Newton
    from the initial guess. Start s > 0 perturbs the anchor with the stream
    of (seeds[r], s), and one batched Newton runs every (row, start) pair.
    A row takes its best converged start, ties within 1e-10 going to the
    start nearest the anchor; where none converged but one ended on the
    floor, the start of highest value; otherwise none. Returns per row the
    Solution that fit(..., solution=) finalises. The sandwiches for
    standard errors are computed only if want_se.
    """
    R, p, S = data.shape[0], fam.p, fit_cfg.starts
    tols = dict(lower=_working_bounds(fam), grad_tol=fit_cfg.grad_tol,
                step_tol=fit_cfg.step_tol)
    if anchor is not None:
        anchor_z = to_working(fam, np.broadcast_to(
            np.asarray(anchor, dtype=float), (R, p)))
    else:
        anchor_z = to_working(fam, fam.initial_guess(data))
        if cfg.alpha != 0.0:
            ml = _WorkingObjective(fam, data,
                                   DpdConfig(alpha=0.0, quad=cfg.quad))
            anchor_z = np.array([r.z for r in maximize(
                ml.evaluate, anchor_z, ml.hessian, **tols)])

    z0 = np.stack([[_start_point(anchor_z[r], s, fit_cfg, seeds[r],
                                 tols["lower"])
                    for s in range(S)] for r in range(R)])
    rows = np.arange(R)
    pair_rows = np.repeat(rows, S)
    dpd = _WorkingObjective(fam, data, cfg)
    results = maximize(lambda k, zs: dpd.evaluate(pair_rows[k], zs),
                       z0.reshape(R * S, p),
                       lambda k, zs: dpd.hessian(pair_rows[k], zs), **tols)

    value, converged, at_bound = (
        np.array([getattr(r, name) for r in results]).reshape(R, S)
        for name in ("value", "converged", "at_bound"))
    z = np.array([r.z for r in results])
    best = np.where(np.any(converged, axis=1),
                    _pick(value, converged, z.reshape(R, S, p), anchor_z),
                    np.where(np.any(at_bound, axis=1),
                             np.argmax(value, axis=1), -1))
    theta_hat = from_working(fam, z.reshape(R, S, p)[rows, best])
    interior = (best >= 0) & ~at_bound[rows, best]
    sandwiches = iter(
        empirical_sandwiches(fam, theta_hat[interior], data[interior], cfg,
                             fit_cfg.cond_cap)
        if want_se and np.any(interior) else [])
    unrequested = EstimationError("standard errors not requested")
    return [Solution(results=results[r * S:(r + 1) * S],
                     best=int(best[r]) if best[r] >= 0 else None,
                     theta_hat=theta_hat[r], value=float(value[r, best[r]]),
                     sandwich=(next(sandwiches, unrequested)
                               if interior[r] else None))
            for r in rows]


def _start_trace(results):
    return [{"start": s, "value": r.value, "grad_norm": r.grad_norm,
             "converged": r.converged, "at_bound": r.at_bound,
             "n_evals": r.n_evals} for s, r in enumerate(results)]


def _finalize(fam, data, cfg, fit_cfg, solution):
    n = data.shape[0]
    results = solution.results
    best = results[solution.best]
    theta_hat = solution.theta_hat
    agree = sum(1 for r in results
                if np.linalg.norm(r.z - best.z) < 1e-6)

    sw = None
    ses = None
    intervals = None
    reason = None
    if best.at_bound:
        reason = "fit ended on the feasible-region floor"
    elif isinstance(solution.sandwich, EstimationError):
        reason = str(solution.sandwich)
    else:
        sw = solution.sandwich
        if np.any(np.diag(sw.sigma) < 0):
            reason = "empirical sandwich has negative variance estimates"
        else:
            ses = sw.standard_errors(n)
            zq = float(special.ndtri(0.5 + fit_cfg.wald_level / 2))
            intervals = np.stack([theta_hat - zq * ses,
                                  theta_hat + zq * ses], axis=1)

    return FitResult(
        family=fam.name, alpha=cfg.alpha, n=n, theta_hat=theta_hat,
        objective_value=solution.value, gradient_norm=best.grad_norm,
        converged=best.converged, at_boundary=best.at_bound,
        converged_starts=[r.converged for r in results],
        n_starts_agreeing=agree, sandwich=sw, standard_errors=ses,
        wald_level=fit_cfg.wald_level, wald_intervals=intervals,
        se_unavailable_reason=reason, start_trace=_start_trace(results))


@dataclass
class FitPath:
    """Per-alpha fits along an ascending grid, warm-started sequentially."""

    alphas: list
    results: list                  # FitResult or None per alpha
    errors: list                   # error message or None per alpha
    cold_check_gaps: dict          # alpha -> max |warm - cold| (working)


def fit_path(fam, sample, alpha_grid, fit_cfg=FitConfig(),
             quad=DEFAULT_QUAD, cold_check_every=3):
    """Fit along an ascending alpha grid, warm-starting each fit from the
    previous theta_hat; every cold_check_every-th grid point is re-fit cold
    and the working-coordinate gap recorded."""
    alphas = [float(a) for a in alpha_grid]
    if len(alphas) == 0:
        raise ValueError("alpha grid must be nonempty")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be ascending")
    data = fam.validate_data(sample)

    results, errors = [], []
    gaps = {}
    warm = None
    for i, a in enumerate(alphas):
        cfg = DpdConfig(alpha=a, quad=quad)
        try:
            r = fit(fam, data, cfg, fit_cfg, anchor=warm)
            results.append(r)
            errors.append(None)
            warm = r.theta_hat
            if cold_check_every and i % cold_check_every == 0:
                r_cold = fit(fam, data, cfg, fit_cfg, anchor=None)
                gaps[a] = float(np.max(np.abs(
                    to_working(fam, r.theta_hat)
                    - to_working(fam, r_cold.theta_hat))))
        except (EstimationError, NonconvergenceError) as exc:
            results.append(None)
            errors.append(str(exc))
    return FitPath(alphas=alphas, results=results, errors=errors,
                   cold_check_gaps=gaps)
