"""Fitting: multi-start maximization of the empirical objective with
analytic derivatives, plus sandwich standard errors and Wald intervals.

Optimization runs in working (unconstrained) coordinates; scale-like
coordinates are floored at log(1e-8), and a fit that ends on that floor is
reported with a boundary flag instead of pretending to have converged. The
first start is anchored at the maximum likelihood fit (or a caller-supplied
warm start); further starts perturb the anchor with deterministic
per-start streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .asymptotics import SandwichCov, empirical_sandwich
from .divergence import (DpdConfig, objective, objective_gradient,
                         objective_hessian, objective_value_and_gradient)
from .errors import (EstimationError, NonconvergenceError,
                     NumericalError)
from .families import (from_working, to_working, working_curvature,
                       working_jacobian)
from .optimize import maximize
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


def _objective_closures(fam, data, cfg):
    # quadrature failures at transient extreme theta are treated as -inf so
    # the line search retreats; only the accepted fit is re-evaluated hard
    def value_and_grad(z):
        theta = from_working(fam, z)
        if not fam.feasible(theta):
            return -np.inf, np.zeros(fam.p)
        try:
            v, g_nat = objective_value_and_gradient(fam, data, theta, cfg)
        except NumericalError:
            return -np.inf, np.zeros(fam.p)
        return v, g_nat * working_jacobian(fam, theta)

    def hess(z):
        theta = from_working(fam, z)
        try:
            H = objective_hessian(fam, data, theta, cfg)
            g_nat = objective_gradient(fam, data, theta, cfg)
        except NumericalError:
            return None
        jac = working_jacobian(fam, theta)
        return (jac[:, None] * H * jac[None, :]
                + np.diag(g_nat * working_curvature(fam, theta)))

    return value_and_grad, hess


def _mle_anchor(fam, data, quad, fit_cfg):
    """Start 1 of any fit: the alpha = 0 (maximum likelihood) solution."""
    cfg0 = DpdConfig(alpha=0.0, quad=quad)
    vg, hs = _objective_closures(fam, data, cfg0)
    z0 = to_working(fam, fam.initial_guess(data))
    res = maximize(vg, z0, hessian=hs, lower=_working_bounds(fam),
                   grad_tol=fit_cfg.grad_tol, step_tol=fit_cfg.step_tol,
                   max_iter=fit_cfg.max_iter)
    return res.z


def fit(fam, sample, cfg, fit_cfg=FitConfig(), anchor=None):
    """Minimum density power divergence fit.

    Maximizes the empirical objective over all starts; the returned point is
    at least as good as every point the optimizer evaluated (the numerical
    near-maximizer contract). Standard errors come from the empirical
    sandwich at theta_hat; if its J is singular they are marked unavailable
    rather than failing the fit.
    """
    data = fam.validate_data(sample)
    n = data.shape[0]
    if n < fam.p + 1:
        raise EstimationError(
            f"need at least p+1={fam.p + 1} observations, got {n}")

    vg, hs = _objective_closures(fam, data, cfg)
    lower = _working_bounds(fam)
    if anchor is not None:
        anchor_z = to_working(fam, np.asarray(anchor, dtype=float))
    elif cfg.alpha == 0.0:
        anchor_z = to_working(fam, fam.initial_guess(data))
    else:
        anchor_z = _mle_anchor(fam, data, cfg.quad, fit_cfg)

    results = []
    for s in range(fit_cfg.starts):
        if s == 0:
            z0 = anchor_z.copy()
        else:
            rng = np.random.Generator(np.random.Philox(
                key=np.array([fit_cfg.seed & (2 ** 64 - 1), s],
                             dtype=np.uint64)))
            z0 = anchor_z + fit_cfg.perturb_scale * rng.standard_normal(fam.p)
            z0 = np.maximum(z0, lower)
        res = maximize(vg, z0, hessian=hs, lower=lower,
                       grad_tol=fit_cfg.grad_tol, step_tol=fit_cfg.step_tol,
                       max_iter=fit_cfg.max_iter)
        results.append(res)

    trace = [{"start": s, "value": r.value, "grad_norm": r.grad_norm,
              "converged": r.converged, "at_bound": r.at_bound,
              "n_evals": r.n_evals} for s, r in enumerate(results)]
    usable = [r for r in results if r.converged]
    if not usable:
        if any(r.at_bound for r in results):
            best = max(results, key=lambda r: r.value)
            return _finalize(fam, data, cfg, fit_cfg, best, results,
                             anchor_z, trace)
        raise NonconvergenceError(
            f"no start converged for {fam.name} at alpha={cfg.alpha:g}",
            detail=trace)

    best_val = max(r.value for r in usable)
    tied = [r for r in usable if r.value >= best_val - 1e-10]
    best = min(tied, key=lambda r: float(np.linalg.norm(r.z - anchor_z)))
    return _finalize(fam, data, cfg, fit_cfg, best, results, anchor_z, trace)


def _finalize(fam, data, cfg, fit_cfg, best, results, anchor_z, trace):
    n = data.shape[0]
    theta_hat = from_working(fam, best.z)
    agree = sum(1 for r in results
                if np.linalg.norm(r.z - best.z) < 1e-6)
    value = objective(fam, data, theta_hat, cfg)

    sw = None
    ses = None
    intervals = None
    reason = None
    if best.at_bound:
        reason = "fit ended on the feasible-region floor"
    else:
        try:
            sw = empirical_sandwich(fam, theta_hat, data, cfg,
                                    cond_cap=fit_cfg.cond_cap)
            if np.any(np.diag(sw.sigma) < 0):
                reason = "empirical sandwich has negative variance estimates"
            else:
                ses = sw.standard_errors(n)
                zq = float(special.ndtri(0.5 + fit_cfg.wald_level / 2))
                intervals = np.stack([theta_hat - zq * ses,
                                      theta_hat + zq * ses], axis=1)
        except EstimationError as exc:
            reason = str(exc)

    return FitResult(
        family=fam.name, alpha=cfg.alpha, n=n, theta_hat=theta_hat,
        objective_value=value, gradient_norm=best.grad_norm,
        converged=best.converged, at_boundary=best.at_bound,
        converged_starts=[r.converged for r in results],
        n_starts_agreeing=agree, sandwich=sw, standard_errors=ses,
        wald_level=fit_cfg.wald_level, wald_intervals=intervals,
        se_unavailable_reason=reason, start_trace=trace)


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
