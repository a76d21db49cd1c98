"""Numerical integration engine for all model integrals.

Continuous supports use fixed-order Gauss-Legendre panels with adaptive
bisection as a fallback. Integer supports degenerate to tail-bounded sums.
Integrands may be scalar-, vector- or matrix-valued (vectorized over the
evaluation points: ``fn(x)`` maps ``(n,)`` to ``(n, *value_shape)``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature configuration.

    nodes is the Gauss order per panel (>= 16). tail_eps controls how far
    windows extend into the tails of the participating densities; the default
    1e-15 reproduces the 8-standard-deviation window for the Normal family.
    For discrete supports the engine sums until the appended tail blocks
    contribute less than abs_tol (tail mass bound 1e-12 via the window).
    """

    nodes: int = 128
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    tail_eps: float = 1e-15
    max_subdivisions: int = 14

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("node count must be at least 16")
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.tail_eps <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_value(fn, lo, hi, nodes):
    x, w = _leggauss(nodes)
    half = 0.5 * (hi - lo)
    pts = half * x + 0.5 * (hi + lo)
    vals = np.asarray(fn(pts), dtype=float)
    return half * np.tensordot(w, vals, axes=(0, 0))


def integrate_continuous(fn, lo, hi, spec=DEFAULT_QUAD, breakpoints=()):
    """Integrate a vectorized integrand over [lo, hi].

    breakpoints (interior, sorted or not) seed the initial panel layout so
    adaptivity starts where the integrand is known to change character.
    Returns (value, error_estimate). Raises NumericalError when the estimate
    stays above tolerance after max_subdivisions bisection levels.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError(
            f"integration window [{lo:g}, {hi:g}] is not finite")
    if hi <= lo:
        raise ValueError("empty integration window")

    edges = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    # stack of (lo, hi, coarse_value, depth)
    stack = [(a, b, _panel_value(fn, a, b, spec.nodes), 0)
             for a, b in zip(edges[:-1], edges[1:])]
    total = np.zeros_like(stack[0][2])
    total_err = 0.0
    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel_value(fn, a, mid, spec.nodes)
        right = _panel_value(fn, mid, b, spec.nodes)
        fine = left + right
        err = float(np.max(np.abs(fine - coarse)))
        scale = max(float(np.max(np.abs(fine))), float(np.max(np.abs(total))))
        tol = max(spec.abs_tol, spec.rel_tol * scale)
        if err <= tol * 0.5 ** min(depth, 4) or depth >= spec.max_subdivisions:
            # exhausted panels are accepted too; their error estimates stay
            # in the global budget checked below
            total = total + fine
            total_err += err
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
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
    tolerance. Returns (value, error_estimate)."""
    k_lo = int(k_lo)
    k_hi = max(int(k_hi), k_lo)
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
