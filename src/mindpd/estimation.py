"""Fitting: multi-start maximization of the empirical objective with
analytic derivatives, plus sandwich standard errors and Wald intervals.

Optimization runs in working (unconstrained) coordinates; scale-like
coordinates are floored at log(1e-8), and a fit that ends on that floor is
reported with a boundary flag instead of pretending to have converged. The
first start is anchored at the maximum likelihood fit (or a caller-supplied
warm start); further starts perturb the anchor with deterministic
per-start streams.

``fit`` runs L-BFGS-B and then Newton from each start. ``fit_batch`` runs
the starts of many samples of one size at once, for the Monte Carlo
harness: the same anchor and starts, with one batched damped Newton over
every (sample, start) pair and no quasi-Newton stage. Each sample's
``Solution`` is then finalised by ``fit(..., solution=)``, so both paths
share the choice among starts, the standard-error rule and the FitResult.
Both evaluate the objective through ``_working_objective``, whose Hessian
comes from one kernel evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .asymptotics import (SandwichCov, empirical_sandwich,
                          empirical_sandwiches)
from .divergence import (DpdConfig, criterion_kernel, objective,
                         # bound here for benchmarks/tracing.py, which
                         # patches these names in this module
                         objective_gradient,  # noqa: F401
                         objective_hessian,  # noqa: F401
                         objective_value_and_gradient)  # noqa: F401
from .errors import (EstimationError, NonconvergenceError,
                     NumericalError)
from .families import (from_working, to_working, working_curvature,
                       working_jacobian)
from .optimize import (AscentResult, at_lower_bound, maximize,
                       newton_polish)
from .quadrature import DEFAULT_QUAD

SCALE_FLOOR_LOG = math.log(1e-8)


@dataclass(frozen=True)
class FitConfig:
    starts: int = 5
    max_iter: int = 200
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


def _working_objective(fam, data, cfg):
    """The empirical objectives of the samples data (R, n) in working
    coordinates, as newton_polish and maximize take them: evaluate(rows, z)
    gives the values (k,) and gradients (k, p) of the objectives of
    data[rows] at the points z (k, p), and hessian(rows, z) their Hessians
    (k, p, p), each from one kernel evaluation.

    Infeasible points read as -inf, and a quadrature failure at a transient
    extreme theta reads as -inf at every point of the call, so the line
    search retreats (the accepted fit is re-evaluated hard); a failed
    Hessian reads as NaN.
    """
    def evaluate(rows, z):
        theta = from_working(fam, z)
        ok = fam.feasible(theta)
        value = np.full(z.shape[0], -np.inf)
        grad = np.zeros(z.shape)
        if not np.any(ok):
            return value, grad
        try:
            m, dm = criterion_kernel(fam, theta[ok], cfg, (0, 1))(
                data[rows[ok]])[:2]
        except NumericalError:
            return value, grad
        value[ok] = np.mean(m, axis=-1)
        grad[ok] = np.mean(dm, axis=-2) * working_jacobian(fam, theta[ok])
        return value, grad

    def hessian(rows, z):
        theta = from_working(fam, z)
        try:
            _, dm, H = criterion_kernel(fam, theta, cfg, (1, 2))(
                data[rows])[:3]
        except NumericalError:
            return np.full(z.shape + z.shape[-1:], np.nan)
        jac = working_jacobian(fam, theta)
        curvature = np.mean(dm, axis=-2) * working_curvature(fam, theta)
        return (jac[..., :, None] * H * jac[..., None, :]
                + np.eye(fam.p) * curvature[..., None, :])

    return evaluate, hessian


def _mle_anchor(fam, data, quad, fit_cfg):
    """Start 1 of any fit: the alpha = 0 (maximum likelihood) solution."""
    evaluate, hessian = _working_objective(
        fam, data[None], DpdConfig(alpha=0.0, quad=quad))
    z0 = to_working(fam, fam.initial_guess(data))
    res = maximize(evaluate, z0, hessian=hessian, lower=_working_bounds(fam),
                   grad_tol=fit_cfg.grad_tol, step_tol=fit_cfg.step_tol,
                   max_iter=fit_cfg.max_iter)
    return res.z


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
    anchor_z: np.ndarray
    best: int                       # index of the chosen start
    theta_hat: np.ndarray
    value: float                    # the objective at theta_hat
    sandwich: object                # SandwichCov, the EstimationError why
                                    # there is none, or None on the floor


def fit(fam, sample, cfg, fit_cfg=FitConfig(), anchor=None, solution=None):
    """Minimum density power divergence fit.

    Maximizes the empirical objective over all starts; the returned point is
    at least as good as every point the optimizer evaluated (the numerical
    near-maximizer contract). Standard errors come from the empirical
    sandwich at theta_hat; if its J is singular they are marked unavailable
    rather than failing the fit.

    solution: this sample's entry of fit_batch, whose batched Newton has
    already run the starts; fit then only finalises it. Without one, fit
    runs its own starts.
    """
    data = fam.validate_data(sample)
    n = data.shape[0]
    if n < fam.p + 1:
        raise EstimationError(
            f"need at least p+1={fam.p + 1} observations, got {n}")
    if solution is None:
        solution = _solve(fam, data, cfg, fit_cfg, anchor)
    return _finalize(fam, data, cfg, fit_cfg, solution)


def _solve(fam, data, cfg, fit_cfg, anchor):
    """Every start of one fit by L-BFGS-B and Newton, and the choice among
    them."""
    evaluate, hessian = _working_objective(fam, data[None], cfg)
    lower = _working_bounds(fam)
    if anchor is not None:
        anchor_z = to_working(fam, np.asarray(anchor, dtype=float))
    elif cfg.alpha == 0.0:
        anchor_z = to_working(fam, fam.initial_guess(data))
    else:
        anchor_z = _mle_anchor(fam, data, cfg.quad, fit_cfg)

    results = [maximize(evaluate,
                        _start_point(anchor_z, s, fit_cfg, fit_cfg.seed,
                                     lower),
                        hessian=hessian, lower=lower,
                        grad_tol=fit_cfg.grad_tol,
                        step_tol=fit_cfg.step_tol, max_iter=fit_cfg.max_iter)
               for s in range(fit_cfg.starts)]
    converged = np.array([r.converged for r in results])
    values = np.array([r.value for r in results])
    if np.any(converged):
        best = int(_pick(values, converged,
                         np.array([r.z for r in results]), anchor_z))
    elif any(r.at_bound for r in results):
        best = int(np.argmax(values))
    else:
        raise NonconvergenceError(
            f"no start converged for {fam.name} at alpha={cfg.alpha:g}",
            detail=_start_trace(results))

    theta_hat = from_working(fam, results[best].z)
    sw = None
    if not results[best].at_bound:
        try:
            sw = empirical_sandwich(fam, theta_hat, data, cfg,
                                    cond_cap=fit_cfg.cond_cap)
        except EstimationError as exc:
            sw = exc
    return Solution(results=results, anchor_z=anchor_z, best=best,
                    theta_hat=theta_hat,
                    value=objective(fam, data, theta_hat, cfg), sandwich=sw)


def fit_batch(fam, data, cfg, fit_cfg, seeds, want_se=True):
    """The starts of many fits at once, one fit per row of the validated
    samples data (R, n) with n > p, by damped Newton alone.

    The steps mirror fit's: the anchor is the alpha = 0 fit, reached by
    Newton from the initial guess; start s > 0 perturbs it with the stream
    of (seeds[r], s); one batched Newton runs every (row, start) pair; and
    a row takes its start by fit's rule. Returns per row the Solution that
    fit(..., solution=) finalises, or None where no start converged: such a
    row, a boundary fit among them, is for fit to run again. The sandwiches
    for standard errors are computed only if want_se.
    """
    R, p, S = data.shape[0], fam.p, fit_cfg.starts
    lower = _working_bounds(fam)
    tols = (fit_cfg.grad_tol, fit_cfg.step_tol)
    anchor = to_working(fam, fam.initial_guess(data))
    if cfg.alpha != 0.0:
        anchor = newton_polish(
            *_working_objective(fam, data, DpdConfig(alpha=0.0,
                                                     quad=cfg.quad)),
            anchor, lower, *tols)[0]

    z0 = np.stack([[_start_point(anchor[r], s, fit_cfg, seeds[r], lower)
                    for s in range(S)] for r in range(R)])
    pair_rows = np.repeat(np.arange(R), S)
    evaluate, hessian = _working_objective(fam, data, cfg)
    n_evals = np.zeros(R * S, dtype=int)

    def counted(k, zs):
        n_evals[k] += 1
        return evaluate(pair_rows[k], zs)

    z, value, grad = newton_polish(
        counted, lambda k, zs: hessian(pair_rows[k], zs),
        z0.reshape(R * S, p), lower, *tols)
    gnorm = np.linalg.norm(grad, axis=-1)
    at_bound = at_lower_bound(z, lower)
    converged = (gnorm <= fit_cfg.grad_tol) & ~at_bound & np.isfinite(value)
    results = [AscentResult(z=z[k], value=float(value[k]),
                            grad_norm=float(gnorm[k]),
                            converged=bool(converged[k]),
                            at_bound=bool(at_bound[k]),
                            n_evals=int(n_evals[k])) for k in range(R * S)]

    converged = converged.reshape(R, S)
    pick = _pick(value.reshape(R, S), converged, z.reshape(R, S, p), anchor)
    found = np.flatnonzero(np.any(converged, axis=1))
    chosen = found * S + pick[found]
    theta_hat = from_working(fam, z[chosen])
    sandwiches = (empirical_sandwiches(fam, theta_hat, data[found], cfg,
                                       fit_cfg.cond_cap) if want_se
                  else [EstimationError("standard errors not requested")]
                  * found.size)
    out = [None] * R
    for i, r in enumerate(found):
        out[r] = Solution(results=results[r * S:(r + 1) * S],
                          anchor_z=anchor[r], best=int(pick[r]),
                          theta_hat=theta_hat[i],
                          value=float(value[chosen[i]]),
                          sandwich=sandwiches[i])
    return out


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
