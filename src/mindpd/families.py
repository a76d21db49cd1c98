"""Parametric family catalog: densities, scores, information matrices.

Each family exposes the quantities the divergence machinery needs, vectorized
over observation arrays: log-density, score (gradient of the log-density in
the natural parameters), information matrix (negative log-density Hessian),
sampling, and tail windows for the quadrature engine. Parameter points are
plain float arrays of length ``p`` in natural coordinates; ``to_working`` /
``from_working`` map to the unconstrained optimization coordinates (log of
scale-like parameters) with exact Jacobians.

Built-ins: ``normal`` (mu, sigma), ``normal_loc`` (mu with known sigma),
``exponential`` (rate), ``poisson`` (rate, integer support), ``gpd``
(shape > 0, scale; heavy-tail generalized Pareto with known location 0).
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import DomainError, IngestionError
from .quadrature import DEFAULT_QUAD, integrate_continuous, sum_discrete

# Smallest log-density before exp() enters the double-underflow region;
# in-support evaluations are floored here so objectives stay finite.
LOG_FLOOR = -745.0

REAL_LINE = "real_line"
HALF_LINE = "half_line"
NONNEG_INT = "nonneg_int"

# integral term kinds: integrals of f^(1+a), S f^(1+a), S S^t f^(1+a), i f^(1+a)
PLAIN_POWER = "plain_power"
SCORE_POWER = "score_power"
SCORE_OUTER_POWER = "score_outer_power"
INFO_POWER = "info_power"
INTEGRAL_KINDS = (PLAIN_POWER, SCORE_POWER, SCORE_OUTER_POWER, INFO_POWER)


@dataclass(frozen=True)
class Support:
    """Observation support. ``nonneg_int`` marks the family as discrete and
    turns every model integral into a tail-bounded sum."""

    kind: str
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if self.kind not in (REAL_LINE, HALF_LINE, NONNEG_INT):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if math.isfinite(self.lo) and math.isfinite(self.hi) and not self.lo < self.hi:
            raise ValueError("support lower bound must be below upper bound")

    @property
    def is_discrete(self):
        return self.kind == NONNEG_INT

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == NONNEG_INT:
            return (x >= 0) & (x == np.floor(x))
        return (x >= self.lo) & (x <= self.hi)


class FamilyModel(ABC):
    """Abstract parametric family.

    Subclasses define class attributes ``name``, ``p``, ``param_names``,
    ``support``, ``transforms`` (per-coordinate ``"identity"`` or ``"log"``),
    ``box`` (open feasible box per coordinate, natural coordinates) and
    ``closed_forms`` (integral kinds with analytic formulas), plus the
    abstract evaluation methods. All methods are pure; instances are
    immutable and safe to share across threads.
    """

    name: str
    p: int
    param_names: tuple
    support: Support
    transforms: tuple
    box: tuple
    closed_forms: frozenset = frozenset()

    # -- feasibility ---------------------------------------------------

    def feasible(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,) or not np.all(np.isfinite(theta)):
            return False
        return all(lo < t < hi for t, (lo, hi) in zip(theta, self.box))

    def require_feasible(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise DomainError(
                f"{self.name}: parameter point must have length {self.p}")
        if not self.feasible(theta):
            on_edge = any(
                t == lo or t == hi for t, (lo, hi) in zip(theta, self.box))
            if on_edge:
                raise DomainError(
                    f"{self.name}: {theta} lies on the feasible boundary")
            raise DomainError(f"{self.name}: infeasible parameters {theta}")
        return theta

    # -- evaluation ----------------------------------------------------

    @abstractmethod
    def _logpdf(self, x, theta):
        """Log-density on in-support points, no floor."""

    @abstractmethod
    def _score(self, x, theta):
        """Score matrix (n, p) on in-support points."""

    @abstractmethod
    def _info(self, x, theta):
        """Information matrices (n, p, p) on in-support points."""

    def logpdf(self, x, theta):
        """log f(x; theta), floored at LOG_FLOOR inside the support and
        -inf outside (continuous supports only)."""
        out, scalar = self._log_density(x, theta)
        return out[0] if scalar else out

    def pdf(self, x, theta):
        """f(x; theta); exactly 0 outside a continuous support."""
        out, scalar = self._log_density(x, theta)
        out = np.exp(out)
        return out[0] if scalar else out

    def score(self, x, theta):
        """Gradient of log f in theta, shape (n, p) ((p,) for scalar x)."""
        return self._in_support(self._score, x, theta, "score")

    def info(self, x, theta):
        """Information matrix -H_theta log f, shape (n, p, p)."""
        return self._in_support(self._info, x, theta, "information")

    def _log_density(self, x, theta):
        theta = self.require_feasible(theta)
        x, scalar = _as_array(x)
        inside = self.support.contains(x)
        if self.support.is_discrete and not np.all(inside):
            raise DomainError(
                f"{self.name}: evaluation points outside the integer support")
        out = np.full(x.shape, -np.inf)
        if np.any(inside):
            out[inside] = np.maximum(self._logpdf(x[inside], theta), LOG_FLOOR)
        return out, scalar

    def _in_support(self, method, x, theta, what):
        theta = self.require_feasible(theta)
        x, scalar = _as_array(x)
        if not np.all(self.support.contains(x)):
            raise DomainError(
                f"{self.name}: {what} requested outside the support")
        out = method(x, theta)
        return out[0] if scalar else out

    # -- integration support --------------------------------------------

    @abstractmethod
    def window(self, theta, tail_eps):
        """(lo, hi) containing all but ~tail_eps of the mass."""

    def panel_hints(self, theta, tail_eps):
        """Interior breakpoints seeding adaptive panels (heavy tails)."""
        return ()

    def closed_integral(self, kind, theta, alpha):
        raise NotImplementedError(
            f"{self.name} has no closed form for {kind}")

    # -- sampling / fitting helpers --------------------------------------

    @abstractmethod
    def sample(self, theta, n, rng):
        """n iid draws using the provided numpy Generator."""

    @abstractmethod
    def initial_guess(self, data):
        """Moment-based feasible starting point for optimization."""

    def validate_data(self, data):
        """Ingestion check: every observation inside the support."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise IngestionError("sample must be a nonempty 1-d array")
        if not np.all(np.isfinite(data)):
            raise IngestionError("sample contains non-finite values")
        bad = ~self.support.contains(data)
        if np.any(bad):
            idx = int(np.argmax(bad))
            what = ("non-integer or negative" if self.support.is_discrete
                    else "outside the support")
            raise IngestionError(
                f"{self.name}: observation {data[idx]!r} at index {idx} "
                f"is {what}")
        return data

    def __repr__(self):
        return f"<family {self.name} p={self.p}>"


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


# -- working (unconstrained) coordinates --------------------------------

def to_working(fam, theta):
    theta = np.asarray(theta, dtype=float)
    z = theta.copy()
    for j, t in enumerate(fam.transforms):
        if t == "log":
            z[j] = np.log(theta[j])
    return z


def from_working(fam, z):
    z = np.asarray(z, dtype=float)
    theta = z.copy()
    with np.errstate(over="ignore"):
        for j, t in enumerate(fam.transforms):
            if t == "log":
                theta[j] = np.exp(z[j])
    return theta


def working_jacobian(fam, theta):
    """diag d theta / d z: exp(z) = theta for log coordinates, 1 otherwise."""
    theta = np.asarray(theta, dtype=float)
    return np.where([t == "log" for t in fam.transforms], theta, 1.0)


def working_curvature(fam, theta):
    """diag d^2 theta / d z^2 (equals theta again for log coordinates)."""
    theta = np.asarray(theta, dtype=float)
    return np.where([t == "log" for t in fam.transforms], theta, 0.0)


# ======================================================================
# Built-in families
# ======================================================================

class Normal(FamilyModel):
    """Normal(mu, sigma) on the full real line.

    Parameter order (mu, sigma); sigma is optimized on the log scale. All
    four power-integral terms have closed forms built from
    C_a = (2 pi sigma^2)^(-a/2) (1+a)^(-1/2), the integral of f^(1+a).
    """

    name = "normal"
    p = 2
    param_names = ("mu", "sigma")
    support = Support(REAL_LINE)
    transforms = ("identity", "log")
    box = ((-math.inf, math.inf), (0.0, math.inf))
    closed_forms = frozenset(INTEGRAL_KINDS)

    def _logpdf(self, x, theta):
        mu, sigma = theta
        return (-np.log(sigma) - 0.5 * math.log(2 * math.pi)
                - (x - mu) ** 2 / (2 * sigma ** 2))

    def _score(self, x, theta):
        mu, sigma = theta
        z = x - mu
        return np.stack([z / sigma ** 2, z ** 2 / sigma ** 3 - 1 / sigma],
                        axis=1)

    def _info(self, x, theta):
        mu, sigma = theta
        z = x - mu
        n = x.shape[0]
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = 1 / sigma ** 2
        out[:, 0, 1] = out[:, 1, 0] = 2 * z / sigma ** 3
        out[:, 1, 1] = 3 * z ** 2 / sigma ** 4 - 1 / sigma ** 2
        return out

    def window(self, theta, tail_eps):
        mu, sigma = theta
        c = max(8.0, -float(special.ndtri(min(tail_eps, 0.5))))
        return mu - c * sigma, mu + c * sigma

    def closed_integral(self, kind, theta, alpha):
        mu, sigma = theta
        ca = _normal_plain_power(sigma, alpha)
        one = 1 + alpha
        if kind == PLAIN_POWER:
            return ca
        if kind == SCORE_POWER:
            return np.array([0.0, -ca * alpha / (one * sigma)])
        if kind == SCORE_OUTER_POWER:
            return np.array([
                [ca / (one * sigma ** 2), 0.0],
                [0.0, ca * (alpha ** 2 + 2) / (one ** 2 * sigma ** 2)]])
        if kind == INFO_POWER:
            return np.array([
                [ca / sigma ** 2, 0.0],
                [0.0, ca * (2 - alpha) / (one * sigma ** 2)]])
        raise ValueError(f"unknown integral kind {kind!r}")

    def sample(self, theta, n, rng):
        mu, sigma = theta
        return mu + sigma * rng.standard_normal(n)

    def initial_guess(self, data):
        return np.array([float(np.mean(data)),
                         max(float(np.std(data)), 1e-6)])


def _normal_plain_power(sigma, alpha):
    return (2 * math.pi * sigma ** 2) ** (-alpha / 2) / math.sqrt(1 + alpha)


class NormalLocation(FamilyModel):
    """Normal(mu) with known sigma; the classic 1-d location problem."""

    name = "normal_loc"
    p = 1
    param_names = ("mu",)
    support = Support(REAL_LINE)
    transforms = ("identity",)
    box = ((-math.inf, math.inf),)
    closed_forms = frozenset(INTEGRAL_KINDS)

    def __init__(self, sigma=1.0):
        if not sigma > 0:
            raise DomainError("normal_loc: sigma must be positive")
        self.sigma = float(sigma)

    def _logpdf(self, x, theta):
        return (-math.log(self.sigma) - 0.5 * math.log(2 * math.pi)
                - (x - theta[0]) ** 2 / (2 * self.sigma ** 2))

    def _score(self, x, theta):
        return ((x - theta[0]) / self.sigma ** 2)[:, None]

    def _info(self, x, theta):
        return np.full((x.shape[0], 1, 1), 1 / self.sigma ** 2)

    def window(self, theta, tail_eps):
        c = max(8.0, -float(special.ndtri(min(tail_eps, 0.5))))
        return theta[0] - c * self.sigma, theta[0] + c * self.sigma

    def closed_integral(self, kind, theta, alpha):
        ca = _normal_plain_power(self.sigma, alpha)
        if kind == PLAIN_POWER:
            return ca
        if kind == SCORE_POWER:
            return np.zeros(1)
        if kind == SCORE_OUTER_POWER:
            return np.array([[ca / ((1 + alpha) * self.sigma ** 2)]])
        if kind == INFO_POWER:
            return np.array([[ca / self.sigma ** 2]])
        raise ValueError(f"unknown integral kind {kind!r}")

    def sample(self, theta, n, rng):
        return theta[0] + self.sigma * rng.standard_normal(n)

    def initial_guess(self, data):
        return np.array([float(np.mean(data))])


class Exponential(FamilyModel):
    """Exponential(rate) on [0, inf); the rate is optimized on the log
    scale. All four power-integral terms have closed forms."""

    name = "exponential"
    p = 1
    param_names = ("rate",)
    support = Support(HALF_LINE, lo=0.0)
    transforms = ("log",)
    box = ((0.0, math.inf),)
    closed_forms = frozenset(INTEGRAL_KINDS)

    def _logpdf(self, x, theta):
        lam = theta[0]
        return math.log(lam) - lam * x

    def _score(self, x, theta):
        return (1 / theta[0] - x)[:, None]

    def _info(self, x, theta):
        return np.full((x.shape[0], 1, 1), 1 / theta[0] ** 2)

    def window(self, theta, tail_eps):
        return 0.0, -math.log(tail_eps) / theta[0]

    def closed_integral(self, kind, theta, alpha):
        lam = theta[0]
        one = 1 + alpha
        if kind == PLAIN_POWER:
            return lam ** alpha / one
        if kind == SCORE_POWER:
            return np.array([lam ** (alpha - 1) * alpha / one ** 2])
        if kind == SCORE_OUTER_POWER:
            return np.array([[lam ** (alpha - 2) * (alpha ** 2 + 1) / one ** 3]])
        if kind == INFO_POWER:
            return np.array([[lam ** (alpha - 2) / one]])
        raise ValueError(f"unknown integral kind {kind!r}")

    def sample(self, theta, n, rng):
        return rng.standard_exponential(n) / theta[0]

    def initial_guess(self, data):
        return np.array([1.0 / max(float(np.mean(data)), 1e-12)])


class Poisson(FamilyModel):
    """Poisson(rate) on the nonnegative integers; integrals become sums
    and the rate is optimized on the log scale."""

    name = "poisson"
    p = 1
    param_names = ("rate",)
    support = Support(NONNEG_INT, lo=0.0)
    transforms = ("log",)
    box = ((0.0, math.inf),)

    def _logpdf(self, x, theta):
        lam = theta[0]
        return -lam + x * math.log(lam) - special.gammaln(x + 1)

    def _score(self, x, theta):
        return (x / theta[0] - 1)[:, None]

    def _info(self, x, theta):
        return (x / theta[0] ** 2)[:, None, None]

    def window(self, theta, tail_eps):
        lam = theta[0]
        lo = float(stats.poisson.ppf(tail_eps, lam))
        hi = float(stats.poisson.isf(tail_eps, lam))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            lo = lam - 40 * math.sqrt(lam + 1)
            hi = lam + 40 * math.sqrt(lam + 1)
        return max(lo - 10.0, 0.0), hi + 10.0

    def sample(self, theta, n, rng):
        return rng.poisson(theta[0], n).astype(float)

    def initial_guess(self, data):
        return np.array([max(float(np.mean(data)), 1e-6)])


class GeneralizedPareto(FamilyModel):
    """Heavy-tail generalized Pareto on [0, inf): shape > 0, scale > 0.

    Location is known (0); the shape is restricted to the strictly
    heavy-tailed regime so the support does not depend on the parameters.
    Parameter order is (shape, scale), both optimized on the log scale;
    only the plain power integral has a closed form.
    """

    name = "gpd"
    p = 2
    param_names = ("shape", "scale")
    support = Support(HALF_LINE, lo=0.0)
    transforms = ("log", "log")
    # generous practical caps: beyond them the tail index is meaningless and
    # the power arithmetic overflows; optimizer probes there read as infeasible
    box = ((0.0, 1e6), (0.0, 1e15))
    closed_forms = frozenset({PLAIN_POWER})

    def _logpdf(self, x, theta):
        xi, beta = theta
        return -math.log(beta) - (1 / xi + 1) * np.log1p(xi * x / beta)

    @staticmethod
    def _phi_psi(u):
        """phi = log1p(u) - u/(1+u) and psi = 2 log1p(u) - 2u/(1+u) -
        (u/(1+u))^2, with series branches: the direct forms cancel
        catastrophically for small u (shape near zero)."""
        r = u / (1 + u)
        L = np.log1p(u)
        phi = L - r
        psi = 2 * L - 2 * r - r * r
        small = u < 1e-3
        if np.any(small):
            us = u[small]
            phi[small] = us ** 2 * (0.5 - 2 / 3 * us
                                    + 0.75 * us ** 2 - 0.8 * us ** 3)
            psi[small] = us ** 3 * (2 / 3 - 1.5 * us
                                    + 2.4 * us ** 2 - 10 / 3 * us ** 3)
        return phi, psi, r

    def _score(self, x, theta):
        xi, beta = theta
        u = xi * x / beta
        phi, _, r = self._phi_psi(u)
        # dlogf/dxi = phi(u)/xi^2 - x/(beta + xi x)
        s_xi = phi / xi ** 2 - r / xi
        s_beta = (-1 + (1 + xi) * r / xi) / beta
        return np.stack([s_xi, s_beta], axis=1)

    def _info(self, x, theta):
        xi, beta = theta
        u = xi * x / beta
        d = beta + xi * x
        _, psi, r = self._phi_psi(u)
        n = x.shape[0]
        out = np.empty((n, 2, 2))
        # -d2 logf / dxi2 = psi(u)/xi^3 - (x/d)^2
        out[:, 0, 0] = psi / xi ** 3 - (x / d) ** 2
        # -d2 logf / dxi dbeta
        out[:, 0, 1] = out[:, 1, 0] = -x * (beta - x) / (beta * d ** 2)
        # -d2 logf / dbeta2
        out[:, 1, 1] = (1 + xi) * x * (2 * beta + xi * x) / (beta * d) ** 2 \
            - 1 / beta ** 2
        return out

    def quantile(self, q, theta):
        xi, beta = theta
        with np.errstate(over="ignore"):
            return beta * np.expm1(-xi * np.log1p(-np.asarray(q))) / xi

    def window(self, theta, tail_eps):
        return 0.0, float(self.quantile(1 - tail_eps, theta))

    def panel_hints(self, theta, tail_eps):
        # body panels at quantiles, then a geometric ladder into the tail:
        # power-law decay is resolved by log-spaced panels, and bisection
        # alone cannot reach that layout within its depth budget
        hi = self.window(theta, tail_eps)[1]
        hints = [float(q) for q in self.quantile((0.5, 0.9, 0.99), theta)]
        x = hints[-1]
        while x * 4.0 < hi and len(hints) < 64:
            x *= 4.0
            hints.append(x)
        return tuple(h for h in hints if h < hi)

    def closed_integral(self, kind, theta, alpha):
        xi, beta = theta
        if kind == PLAIN_POWER:
            return beta ** (-alpha) / (1 + alpha * (1 + xi))
        raise NotImplementedError(f"gpd has no closed form for {kind}")

    def sample(self, theta, n, rng):
        xi, beta = theta
        u = rng.random(n)
        return beta * np.expm1(-xi * np.log1p(-u)) / xi

    def initial_guess(self, data):
        m = float(np.mean(data))
        v = max(float(np.var(data)), 1e-12)
        xi = 0.5 * (1 - m * m / v)
        xi = float(np.clip(xi, 0.05, 0.45))
        beta = max(m * (1 - xi), 1e-8)
        return np.array([xi, beta])


FAMILIES = {
    "normal": Normal,
    "normal_loc": NormalLocation,
    "exponential": Exponential,
    "poisson": Poisson,
    "gpd": GeneralizedPareto,
}


def get_family(name, **kwargs):
    """Catalog lookup by name (the CLI/config entry point)."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown family {name!r}; available: {sorted(FAMILIES)}") from None
    return cls(**kwargs) if kwargs else cls()


# ======================================================================
# Finite mixtures (true densities g, data generators)
# ======================================================================

class Mixture:
    """Finite mixture of catalog family members sharing one support.

    Serves both as the representable "true density" g for population-level
    computations and as the data generator for Monte Carlo studies.
    """

    def __init__(self, components):
        comps = []
        for fam, theta, weight in components:
            theta = fam.require_feasible(theta)
            comps.append((fam, theta, float(weight)))
        if not comps:
            raise DomainError("mixture needs at least one component")
        w = np.array([c[2] for c in comps])
        if np.any(w < 0):
            raise DomainError("mixture weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {w.sum()!r}, not 1")
        s0 = comps[0][0].support
        for fam, _, _ in comps[1:]:
            if fam.support != s0:
                raise DomainError("mixture components must share a support")
        self.components = tuple(comps)
        self.support = s0

    @classmethod
    def single(cls, fam, theta):
        return cls([(fam, theta, 1.0)])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for fam, theta, w in self.components:
            if w > 0:
                out += w * fam.pdf(x, theta)
        return out

    def window(self, tail_eps):
        los, his = zip(*(fam.window(theta, tail_eps)
                         for fam, theta, _ in self.components))
        return min(los), max(his)

    def panel_hints(self, tail_eps):
        hints = set()
        for fam, theta, _ in self.components:
            lo, hi = fam.window(theta, tail_eps)
            hints.update((lo, hi))
            hints.update(fam.panel_hints(theta, tail_eps))
        return tuple(sorted(hints))

    def sample(self, n, rng):
        """Component picked by weight, then the family sampler; one shared
        generator keeps draws deterministic for a given stream."""
        w = np.array([c[2] for c in self.components])
        idx = np.searchsorted(np.cumsum(w), rng.random(n), side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        out = np.empty(n)
        for j, (fam, theta, _) in enumerate(self.components):
            sel = idx == j
            cnt = int(np.count_nonzero(sel))
            if cnt:
                out[sel] = fam.sample(theta, cnt, rng)
        return out

    def __repr__(self):
        parts = ", ".join(f"{w:g}*{fam.name}{tuple(theta)}"
                          for fam, theta, w in self.components)
        return f"<mixture {parts}>"


def model_density(fam, theta):
    """The pure-model g = f(.; theta) as a one-component mixture."""
    return Mixture.single(fam, theta)


# ======================================================================
# Model integral terms
# ======================================================================

def integral_terms(fam, theta, alpha, kinds, quad=DEFAULT_QUAD,
                   method="auto"):
    """Model integrals of the given kinds over the support at (theta, alpha),
    in the order given: plain_power -> scalar, score_power -> (p,),
    score_outer_power / info_power -> (p, p).

    Closed forms are used when the family flags them unless
    method="quadrature" forces the numeric path; method="closed" requires
    one. The numeric kinds are stacked as columns of one integrand, so they
    share a single quadrature or summation pass.
    """
    for kind in kinds:
        if kind not in INTEGRAL_KINDS:
            raise ValueError(f"unknown integral kind {kind!r}")
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    theta = fam.require_feasible(theta)
    if method not in ("auto", "quadrature", "closed"):
        raise ValueError(f"unknown integral method {method!r}")
    numeric = [kind for kind in kinds if method == "quadrature" or (
        method == "auto" and kind not in fam.closed_forms)]
    want_score = SCORE_POWER in numeric or SCORE_OUTER_POWER in numeric
    p = fam.p

    def integrand(x):
        w = np.exp((1 + alpha) * fam.logpdf(x, theta))
        s = fam.score(x, theta) if want_score else None
        cols = []
        for kind in numeric:
            if kind == PLAIN_POWER:
                cols.append(w[:, None])
            elif kind == SCORE_POWER:
                cols.append(s * w[:, None])
            else:
                m = (np.einsum("ni,nj->nij", s, s)
                     if kind == SCORE_OUTER_POWER else fam.info(x, theta))
                cols.append((m * w[:, None, None]).reshape(-1, p * p))
        return np.concatenate(cols, axis=1)

    if numeric:
        flat, _ = integrate_model(fam.support, integrand,
                                  windows=[fam.window(theta, quad.tail_eps)],
                                  quad=quad,
                                  hints=fam.panel_hints(theta, quad.tail_eps))
    out = []
    for kind in kinds:
        if kind not in numeric:
            out.append(fam.closed_integral(kind, theta, alpha))
            continue
        size = {PLAIN_POWER: 1, SCORE_POWER: p}.get(kind, p * p)
        value, flat = flat[:size], flat[size:]
        out.append(float(value[0]) if kind == PLAIN_POWER
                   else value if kind == SCORE_POWER else value.reshape(p, p))
    return tuple(out)


def integral_term(fam, theta, alpha, kind, quad=DEFAULT_QUAD, method="auto"):
    """Model integral of one kind; see integral_terms."""
    return integral_terms(fam, theta, alpha, (kind,), quad, method)[0]


def integrate_model(support, integrand, windows, quad=DEFAULT_QUAD, hints=()):
    """Integrate (or sum) a vectorized integrand over a support, restricted
    to the hull of the given windows; hints seed adaptive panels."""
    lo = min(w[0] for w in windows)
    hi = max(w[1] for w in windows)
    if support.is_discrete:
        return sum_discrete(integrand, max(lo, 0), hi, quad)
    lo = max(lo, support.lo)
    hi = min(hi, support.hi)
    inner = sorted({float(h) for w in windows for h in w}
                   | {float(h) for h in hints})
    breakpoints = tuple(b for b in inner if lo < b < hi)
    return integrate_continuous(integrand, lo, hi, quad,
                                breakpoints=breakpoints)
