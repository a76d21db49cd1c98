"""Reference computations made apart from mindpd.

Densities come from ``scipy.stats``; scores and information matrices are
written out by hand; integrals use ``scipy.integrate.quad_vec`` or a direct
two-sided sum over the integers. Nothing here imports mindpd, so a check
built on these functions cannot share a fault with the program it checks.

A family is named as in the CLI (``normal``, ``normal_loc`` with sigma 1,
``exponential``, ``poisson``, ``gpd``). A mixture is a list of
``(family, theta, weight)`` triples.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

DISCRETE = {"poisson"}


def logpdf(fam, x, theta):
    x = np.asarray(x, dtype=float)
    if fam == "normal":
        return stats.norm.logpdf(x, loc=theta[0], scale=theta[1])
    if fam == "normal_loc":
        return stats.norm.logpdf(x, loc=theta[0], scale=1.0)
    if fam == "exponential":
        return stats.expon.logpdf(x, scale=1.0 / theta[0])
    if fam == "poisson":
        return stats.poisson.logpmf(x, theta[0])
    if fam == "gpd":
        return stats.genpareto.logpdf(x, c=theta[0], scale=theta[1])
    raise ValueError(fam)


def score(fam, x, theta):
    """Gradient of the log-density in the natural parameters, (n, p)."""
    x = np.asarray(x, dtype=float)
    if fam == "normal":
        mu, s = theta
        z = (x - mu) / s
        return np.stack([z / s, (z * z - 1) / s], axis=1)
    if fam == "normal_loc":
        return (x - theta[0])[:, None]
    if fam == "exponential":
        return (1 / theta[0] - x)[:, None]
    if fam == "poisson":
        return (x / theta[0] - 1)[:, None]
    if fam == "gpd":
        xi, b = theta
        u = 1 + xi * x / b
        a = 1 / xi + 1
        return np.stack([np.log(u) / xi ** 2 - a * (x / b) / u,
                         -1 / b + a * (xi * x / b ** 2) / u], axis=1)
    raise ValueError(fam)


def info(fam, x, theta):
    """Minus the Hessian of the log-density, (n, p, p)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if fam == "normal":
        mu, s = theta
        z = (x - mu) / s
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = 1 / s ** 2
        out[:, 0, 1] = out[:, 1, 0] = 2 * z / s ** 2
        out[:, 1, 1] = (3 * z * z - 1) / s ** 2
        return out
    if fam == "normal_loc":
        return np.ones((n, 1, 1))
    if fam == "exponential":
        return np.full((n, 1, 1), 1 / theta[0] ** 2)
    if fam == "poisson":
        return (x / theta[0] ** 2)[:, None, None]
    if fam == "gpd":
        xi, b = theta
        u = 1 + xi * x / b
        a = 1 / xi + 1
        r = x / b
        d_xx = -2 * np.log(u) / xi ** 3 + 2 * r / (xi ** 2 * u) + a * r * r / u ** 2
        d_xb = -x / (xi * b * b * u) + a * x / (b * b * u) - a * xi * x * x / (b ** 3 * u * u)
        d_bb = 1 / b ** 2 + a * (-2 * xi * x / (b ** 3 * u) + (xi * x / b ** 2) ** 2 / u ** 2)
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = -d_xx
        out[:, 0, 1] = out[:, 1, 0] = -d_xb
        out[:, 1, 1] = -d_bb
        return out
    raise ValueError(fam)


def n_params(fam):
    return 2 if fam in ("normal", "gpd") else 1


def mixture_pdf(g, x):
    return sum(w * np.exp(logpdf(f, x, t)) for f, t, w in g)


def _breaks(fam, theta):
    """Split points where the integrand changes character."""
    if fam == "normal":
        mu, s = theta
        return [mu - 8 * s, mu, mu + 8 * s]
    if fam == "normal_loc":
        return [theta[0] - 8, theta[0], theta[0] + 8]
    if fam == "exponential":
        return [0.0, 1 / theta[0], 40 / theta[0]]
    if fam == "gpd":
        return [0.0, theta[1], 10 * theta[1], 1e3 * theta[1]]
    raise ValueError(fam)


def integrate_support(fam, fn, points):
    """Integral over the support of ``fam`` of a vectorised ``fn`` (which
    maps (n,) to (n, k)), with ``points`` the (family, theta) pairs whose
    mass the integrand carries. Continuous supports use quad_vec on panels
    split at each pair's landmarks; the integers are summed directly over a
    window that reaches 40 standard deviations past every pair's mean on
    both sides."""
    if fam in DISCRETE:
        lo = min(max(0.0, t[0] - 40 * math.sqrt(t[0]) - 40) for _, t in points)
        hi = max(t[0] + 40 * math.sqrt(t[0]) + 60 for _, t in points)
        ks = np.arange(math.floor(lo), math.ceil(hi) + 1, dtype=float)
        return np.sum(fn(ks), axis=0)
    edges = sorted({b for f, t in points for b in _breaks(f, t)})
    if fam in ("normal", "normal_loc"):
        edges = [-np.inf] + edges + [np.inf]
    else:
        edges = [e for e in edges if e > 0]
        edges = [0.0] + edges + [np.inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad_vec(lambda x: fn(np.array([x]))[0], a, b,
                                    epsabs=1e-14, epsrel=1e-12, limit=400)
        total = total + val
    return total


def plain_power(fam, theta, alpha):
    """Integral of f^(1+alpha): the closed form for gpd, a direct sum for
    poisson, quadrature otherwise."""
    if fam == "gpd":
        xi, b = theta
        return b ** (-alpha) / (1 + alpha * (1 + xi))
    return float(integrate_support(
        fam, lambda x: np.exp((1 + alpha) * logpdf(fam, x, theta))[:, None],
        [(fam, theta)])[0])


def dpd_objective(fam, data, theta, alpha):
    """Empirical MDPDE objective: (1 + 1/alpha) mean f^alpha minus the
    integral of f^(1+alpha); the mean log-density at alpha = 0."""
    lf = logpdf(fam, data, theta)
    if alpha == 0:
        return float(np.mean(lf))
    return float((1 + 1 / alpha) * np.mean(np.exp(alpha * lf))
                 - plain_power(fam, theta, alpha))


def sandwich_parts(fam, theta, g, alpha):
    """K, J and sigma = J^-1 K J^-1 of the MDPDE at theta under the mixture
    g (Basu, Harris, Hjort & Jones 1998):
    U = int S f^a g, K = int S S' f^2a g - U U',
    J = int S S' f^(1+a) + int (i - a S S')(g - f) f^a."""
    p = n_params(fam)
    pts = [(fam, theta)] + [(f, t) for f, t, _ in g]

    def integrand(x):
        s = score(fam, x, theta)
        i = info(fam, x, theta)
        lf = logpdf(fam, x, theta)
        fa = np.exp(alpha * lf)
        f1 = np.exp(lf)
        gv = mixture_pdf(g, x)
        ss = np.einsum("ni,nj->nij", s, s)
        u = s * (fa * gv)[:, None]
        k2 = ss * (fa * fa * gv)[:, None, None]
        j = (ss * (fa * f1)[:, None, None]
             + (i - alpha * ss) * ((gv - f1) * fa)[:, None, None])
        return np.concatenate([u, k2.reshape(-1, p * p),
                               j.reshape(-1, p * p)], axis=1)

    v = integrate_support(fam, integrand, pts)
    U = v[:p]
    K = v[p:p + p * p].reshape(p, p) - np.outer(U, U)
    J = v[p + p * p:].reshape(p, p)
    Jinv = np.linalg.inv(J)
    sigma = Jinv @ K @ Jinv.T
    return K, J, 0.5 * (sigma + sigma.T)


def population_gradient(fam, theta, g, alpha):
    """Gradient of the population objective divided by (1 + alpha):
    int S f^a g - int S f^(1+a), plus the scale int |S| f^a g against
    which it is judged."""
    p = n_params(fam)
    pts = [(fam, theta)] + [(f, t) for f, t, _ in g]

    def integrand(x):
        s = score(fam, x, theta)
        lf = logpdf(fam, x, theta)
        fa = np.exp(alpha * lf)
        gv = mixture_pdf(g, x)
        return np.concatenate([s * ((gv - np.exp(lf)) * fa)[:, None],
                               np.abs(s) * (gv * fa)[:, None]], axis=1)

    v = integrate_support(fam, integrand, pts)
    return v[:p], v[p:]


def info_integrals(fam, theta, g, alpha):
    """max_jk int |i_jk| f^(1+a) and max_jk int |i_jk| f^a g."""
    p = n_params(fam)
    pts = [(fam, theta)] + [(f, t) for f, t, _ in g]

    def integrand(x):
        i = np.abs(info(fam, x, theta)).reshape(-1, p * p)
        lf = logpdf(fam, x, theta)
        fa = np.exp(alpha * lf)
        gv = mixture_pdf(g, x)
        return np.concatenate([i * (fa * np.exp(lf))[:, None],
                               i * (fa * gv)[:, None]], axis=1)

    v = integrate_support(fam, integrand, pts)
    return float(np.max(v[:p * p])), float(np.max(v[p * p:]))


def inverse_fisher(fam, theta):
    """Closed-form inverse Fisher information (the alpha = 0 sandwich at a
    model point)."""
    if fam == "normal":
        s = theta[1]
        return np.diag([s * s, s * s / 2])
    if fam == "normal_loc":
        return np.ones((1, 1))
    if fam == "exponential":
        return np.array([[theta[0] ** 2]])
    if fam == "poisson":
        return np.array([[theta[0]]])
    if fam == "gpd":
        xi, b = theta
        return np.array([[(1 + xi) ** 2, -b * (1 + xi)],
                         [-b * (1 + xi), 2 * b * b * (1 + xi)]])
    raise ValueError(fam)


def normal_are_mu(alpha):
    """ARE of the location MDPDE in the normal model."""
    return (1 + 2 * alpha) ** 1.5 / (1 + alpha) ** 3


def normal_score_sups(theta, alpha):
    """sup_x S_j(x)^2 f(x)^(2 alpha) for the normal family at alpha > 0.
    With z = (x - mu)/sigma and c = (2 pi sigma^2)^(-alpha), the mu term
    z^2 e^(-alpha z^2) c / sigma^2 peaks at z^2 = 1/alpha and the sigma term
    (z^2 - 1)^2 e^(-alpha z^2) c / sigma^2 at z^2 = 1 + 2/alpha."""
    s = theta[1]
    c = (2 * math.pi * s * s) ** (-alpha) / (s * s)
    return np.array([c * math.exp(-1) / alpha,
                     c * (2 / alpha) ** 2 * math.exp(-alpha - 2)])
