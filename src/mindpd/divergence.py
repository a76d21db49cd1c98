"""Density power divergence, M-estimation criterion, and its derivatives.

This module is the only place that branches on alpha = 0: the criterion
becomes the log-density (so the estimator reduces to maximum likelihood),
its gradient the score, its Hessian the negative information matrix, and the
divergence takes its Kullback-Leibler limit form. Everywhere else alpha = 0
flows through the generic formulas unchanged.

The criterion and its derivatives all come from one kernel,
``criterion_kernel``, which computes the data-free model integrals once per
theta and then evaluates any set of points.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .families import (INFO_POWER, INTEGRAL_KINDS, PLAIN_POWER,
                       SCORE_OUTER_POWER, SCORE_POWER,
                       integral_term,  # noqa: F401  (re-exported)
                       integral_terms, integrate_model)
from .quadrature import QuadratureSpec

# model integral kinds each derivative order of the criterion needs
_ORDER_KINDS = ((PLAIN_POWER,), (SCORE_POWER,),
                (SCORE_OUTER_POWER, INFO_POWER))


@dataclass(frozen=True)
class DpdConfig:
    """Tuning constant and quadrature settings.

    alpha = 0 selects the KL-limit (maximum likelihood) path everywhere;
    no division by alpha ever occurs on that path.
    """

    alpha: float
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not self.alpha >= 0:
            raise DomainError("alpha must be nonnegative")


def windows_and_hints(fam, theta, g, quad):
    """Tail windows and panel hints of the model at theta and of the true
    density g, for integrals against both."""
    windows = [fam.window(theta, quad.tail_eps), g.window(quad.tail_eps)]
    hints = tuple(fam.panel_hints(theta, quad.tail_eps)) \
        + tuple(g.panel_hints(quad.tail_eps))
    return windows, hints


# ----------------------------------------------------------------------
# divergence
# ----------------------------------------------------------------------

def dpd_divergence(g, fam, theta, cfg):
    """Density power divergence between a true density g (a Mixture) and
    the model density f(.; theta).

    alpha = 0 returns the Kullback-Leibler form; alpha = 1 equals the
    squared L2 distance between the densities.
    """
    fam.require_feasible(theta)
    if g.support != fam.support:
        raise DomainError(
            "true density and model family have incompatible supports")
    alpha = cfg.alpha
    windows, hints = windows_and_hints(fam, theta, g, cfg.quad)

    if alpha == 0.0:
        def integrand(x):
            gv = g.pdf(x)
            lf = fam.logpdf(x, theta)
            out = np.zeros_like(gv)
            pos = gv > 0
            out[pos] = gv[pos] * (np.log(gv[pos]) - lf[pos])
            return out
    else:
        def integrand(x):
            gv = g.pdf(x)
            lf = fam.logpdf(x, theta)
            fa = np.exp(alpha * lf)
            f1a = np.exp((1 + alpha) * lf)
            # (g/alpha)(g^alpha - f^alpha) written via expm1 so the
            # alpha -> 0 limit is reached without cancellation
            out = f1a - gv * fa
            pos = gv > 0
            lg = np.log(gv[pos])
            out[pos] += (gv[pos] * fa[pos]
                         * np.expm1(alpha * (lg - lf[pos])) / alpha)
            return out

    value, _ = integrate_model(fam.support, integrand, windows, cfg.quad,
                               hints=hints)
    value = float(value)
    if value < 0:
        # quadrature noise around the g = f minimum
        value = max(value, 0.0) if value > -1e-10 else value
    return value


# ----------------------------------------------------------------------
# criterion kernel and its views: criterion and empirical objective
# ----------------------------------------------------------------------

def criterion_kernel(fam, theta, cfg, orders):
    """The criterion (order 0), its gradient (order 1) and its Hessian
    (order 2) at theta, for the ascending orders requested.

    The model integrals these need are computed here, once per theta, in
    one fused pass where no closed form exists; the alpha = 0 forms (log f,
    S and -i) need none. Returns a function of the points x that evaluates
    log f, S, i and f^alpha once and gives the tuple (m, dm, hess, s, fa):
    per-point criterion and gradient, the symmetrised mean Hessian, the
    score and f^alpha, with None for what was not requested.

    theta may be one point (p,), evaluated at points x (n,) or a scalar,
    or a batch (R, p), evaluated at points x (R, n), row r at theta[r];
    every result then gains the leading axis R. One point is the batch of
    one, so a row's values do not depend on the rows beside it.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        batch = criterion_kernel(fam, theta[None], cfg, orders)

        def evaluate_point(x):
            x = np.asarray(x, dtype=float)
            m, dm, hess, s, fa = batch(x.reshape(1, -1))
            at = (0, 0) if x.ndim == 0 else 0
            return tuple(None if v is None else v[i] for v, i in (
                (m, at), (dm, at), (hess, 0), (s, at), (fa, at)))
        return evaluate_point

    wants_score = orders[-1] >= 1
    if cfg.alpha == 0.0:
        def evaluate(x):
            s = fam.score(x, theta) if wants_score else None
            m = fam.logpdf(x, theta) if 0 in orders else None
            hess = (-np.mean(fam.info(x, theta), axis=-3) if 2 in orders
                    else None)
            return (m, s if 1 in orders else None, _symmetrised(hess), s,
                    np.ones(np.shape(x)))
        return evaluate

    alpha = cfg.alpha
    kinds = [kind for order in orders for kind in _ORDER_KINDS[order]]
    terms = iter(integral_terms(fam, theta, alpha, kinds, cfg.quad))
    plain, score, outer, info = (next(terms) if kind in kinds else None
                                 for kind in INTEGRAL_KINDS)
    # model terms lined up with the per-point axis
    plain = None if plain is None else plain[:, None]
    score = None if score is None else score[:, None, :]

    def evaluate(x):
        s = fam.score(x, theta) if wants_score else None
        fa = np.exp(alpha * fam.logpdf(x, theta))
        m = (1 + 1 / alpha) * fa - plain if 0 in orders else None
        dm = ((1 + alpha) * (s * fa[..., None] - score) if 1 in orders
              else None)
        hess = None
        if 2 in orders:
            point = (-fam.info(x, theta)
                     + alpha * (s[..., :, None] * s[..., None, :])) \
                * fa[..., None, None]
            bracket = (1 + alpha) * outer - info
            hess = (1 + alpha) * (np.mean(point, axis=-3) - bracket)
        return m, dm, _symmetrised(hess), s, fa
    return evaluate


def _symmetrised(h):
    return None if h is None else 0.5 * (h + np.swapaxes(h, -1, -2))


def criterion(fam, x, theta, cfg):
    """Per-observation criterion m(x, theta); x may be a scalar.

    For alpha > 0 this is (1 + 1/alpha) f^alpha(x) minus the model integral
    of f^(1+alpha); for alpha = 0 it is log f(x; theta).
    """
    return criterion_kernel(fam, theta, cfg, (0,))(x)[0]


def criterion_gradient(fam, x, theta, cfg):
    """Per-observation criterion gradients, shape (n, p): the score for
    alpha = 0, otherwise (1+alpha)(S f^alpha - model score-power term)."""
    return criterion_kernel(fam, theta, cfg, (1,))(x)[1]


def objective(fam, sample, theta, cfg):
    """Empirical objective: the sample average of the criterion."""
    m = criterion_kernel(fam, theta, cfg, (0,))(fam.validate_data(sample))[0]
    return float(np.mean(m))


def objective_gradient(fam, sample, theta, cfg):
    """Gradient of the empirical objective in natural coordinates."""
    dm = criterion_kernel(fam, theta, cfg, (1,))(fam.validate_data(sample))[1]
    return np.mean(dm, axis=0)


def objective_value_and_gradient(fam, sample, theta, cfg):
    """Objective and gradient from one kernel evaluation."""
    m, dm = criterion_kernel(fam, theta, cfg, (0, 1))(
        fam.validate_data(sample))[:2]
    return float(np.mean(m)), np.mean(dm, axis=0)


def objective_hessian(fam, sample, theta, cfg):
    """Hessian of the empirical objective in natural coordinates."""
    return criterion_kernel(fam, theta, cfg, (2,))(
        fam.validate_data(sample))[2]
