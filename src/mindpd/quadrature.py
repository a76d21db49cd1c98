"""Numerical integration engine for all model integrals.

Continuous supports use level-synchronous batched Gauss-Legendre bisection:
fixed-order panels, bisected level by level, where each level evaluates the
halves of every still-active panel in one integrand call (Gander and
Gautschi's adaptive scheme, breadth first). Integer supports degenerate to
tail-bounded sums. Integrands may be scalar-, vector- or matrix-valued
(vectorized over the evaluation points: ``fn(x)`` maps ``(n,)`` to
``(n, *value_shape)``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError

# most points passed to an integrand in one call; wider bisection levels are
# split over several calls so peak memory stays bounded at any depth
MAX_CALL_NODES = 2 ** 16
# widest window sum_discrete sums in one call; wider ones raise NumericalError
MAX_SUM_TERMS = 2 ** 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature configuration.

    nodes is the Gauss order per panel (16 to MAX_CALL_NODES). tail_eps
    controls how far windows extend into the tails of the participating
    densities; the default 1e-15 reproduces the 8-standard-deviation window
    for the Normal family. For discrete supports the engine sums until the
    appended tail blocks contribute less than abs_tol (tail mass bound
    1e-12 via the window).
    """

    nodes: int = 128
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    tail_eps: float = 1e-15
    max_subdivisions: int = 14

    def __post_init__(self):
        if not 16 <= self.nodes <= MAX_CALL_NODES:
            raise ValueError(
                f"node count must be between 16 and {MAX_CALL_NODES}")
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.tail_eps <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_values(fn, a, b, nodes):
    """Gauss-Legendre values of the panels [a_i, b_i], shape
    (len(a), *value_shape), from at most MAX_CALL_NODES nodes per call."""
    x, w = _leggauss(nodes)
    per_call = MAX_CALL_NODES // nodes
    out = []
    for i in range(0, len(a), per_call):
        half = 0.5 * (b[i:i + per_call] - a[i:i + per_call])
        mid = 0.5 * (b[i:i + per_call] + a[i:i + per_call])
        pts = (half[:, None] * x + mid[:, None]).ravel()
        vals = np.asarray(fn(pts), dtype=float)
        shape = (len(half),) + vals.shape[1:]
        sums = w @ vals.reshape(len(half), nodes, -1)
        out.append((half[:, None] * sums).reshape(shape))
    return np.concatenate(out)


def _peak(v):
    """Largest absolute entry of each panel's value."""
    return np.abs(v).reshape(len(v), -1).max(axis=1)


def integrate_continuous(fn, lo, hi, spec=DEFAULT_QUAD, breakpoints=()):
    """Integrate a vectorized integrand over [lo, hi].

    fn maps points of shape (n,) to values of shape (n, *value_shape). One
    call may receive the nodes of many panels, and of panels far apart:
    fn must treat every point on its own. breakpoints (interior, sorted or
    not) seed the initial panel layout so adaptivity starts where the
    integrand is known to change character.

    Bisection is level-synchronous: the coarse values of all initial panels
    come from one call, then each level evaluates both halves of every
    still-active panel in one call (split into calls of at most
    MAX_CALL_NODES nodes) and accepts or bisects all of them at once.
    A panel at depth d is accepted when |fine - coarse| is at most
    max(abs_tol, rel_tol * scale) * 0.5**min(d, 4), where scale is the
    larger of |fine| and |accepted total + this level's fine values|, or
    when d reaches max_subdivisions.

    Returns (value, error_estimate). Raises NumericalError when the summed
    error estimate exceeds 4 times the tolerance of the total.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError(
            f"integration window [{lo:g}, {hi:g}] is not finite")
    if hi <= lo:
        raise ValueError("empty integration window")

    edges = np.array([lo] + sorted(b for b in breakpoints if lo < b < hi)
                     + [hi], dtype=float)
    a, b = edges[:-1], edges[1:]
    coarse = _panel_values(fn, a, b, spec.nodes)
    total = np.zeros(coarse.shape[1:])
    total_err = 0.0
    for depth in range(spec.max_subdivisions + 1):
        mid = 0.5 * (a + b)
        halves = _panel_values(fn, np.concatenate([a, mid]),
                               np.concatenate([mid, b]), spec.nodes)
        left, right = halves[:len(a)], halves[len(a):]
        fine = left + right
        err = _peak(fine - coarse)
        whole = float(np.max(np.abs(total + fine.sum(axis=0))))
        tol = np.maximum(spec.abs_tol,
                         spec.rel_tol * np.maximum(_peak(fine), whole))
        # exhausted panels are accepted too; their error estimates stay in
        # the global budget checked below
        done = ((err <= tol * 0.5 ** min(depth, 4))
                | (depth >= spec.max_subdivisions))
        total = total + fine[done].sum(axis=0)
        total_err += float(err[done].sum())
        if done.all():
            break
        keep = ~done
        a, b = (np.concatenate([a[keep], mid[keep]]),
                np.concatenate([mid[keep], b[keep]]))
        coarse = np.concatenate([left[keep], right[keep]])
    global_tol = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(total))))
    if total_err > 4 * global_tol:
        raise NumericalError(
            f"quadrature did not converge on [{lo:g}, {hi:g}] after "
            f"{spec.max_subdivisions} subdivision levels "
            f"(error estimate {total_err:.3e} > tol {global_tol:.3e})",
            error_estimate=total_err,
        )
    return total, total_err


def sum_discrete(fn, k_lo, k_hi, spec=DEFAULT_QUAD, block=64, max_blocks=512):
    """Sum a vectorized integrand over integers k_lo..k_hi, then keep
    extending upward in blocks until a whole block contributes less than
    tolerance. Returns (value, error_estimate). Raises NumericalError,
    without calling fn, when k_lo..k_hi holds more than MAX_SUM_TERMS
    integers or reaches 2**53, beyond which float64 skips integers."""
    k_lo = int(k_lo)
    k_hi = max(int(k_hi), k_lo)
    if k_hi - k_lo >= MAX_SUM_TERMS or k_hi >= 2 ** 53:
        raise NumericalError(
            f"discrete window {k_lo}..{k_hi} is wider than {MAX_SUM_TERMS} "
            f"terms or not exactly representable")
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    total = np.sum(np.asarray(fn(ks), dtype=float), axis=0)
    last = np.inf
    nxt = k_hi + 1
    for _ in range(max_blocks):
        ks = np.arange(nxt, nxt + block, dtype=float)
        contrib = np.sum(np.asarray(fn(ks), dtype=float), axis=0)
        total = total + contrib
        last = float(np.max(np.abs(contrib)))
        scale = max(1.0, float(np.max(np.abs(total))))
        if last < spec.abs_tol and last < spec.rel_tol * scale:
            return total, last
        nxt += block
    raise NumericalError(
        f"discrete tail sum did not converge by k={nxt} "
        f"(last block {last:.3e})", error_estimate=last)
