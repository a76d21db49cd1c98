"""Shared smooth maximization core.

Quasi-Newton ascent (scipy L-BFGS-B on the negated objective, analytic
gradient, optional lower bounds for floored scale coordinates) followed by
Newton refinement with the analytic Hessian and a backtracking
sufficient-increase line search. Tracks every evaluated point so callers can
guarantee the returned point is at least as good as anything visited.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize


@dataclass
class AscentResult:
    z: np.ndarray
    value: float
    grad_norm: float
    converged: bool
    at_bound: bool
    n_evals: int


class _Tracker:
    """Wraps value_and_grad, counting every evaluation and remembering the
    best point the quasi-Newton stage saw."""

    def __init__(self, value_and_grad):
        self.fn = value_and_grad
        self.best_z = None
        self.best_value = -np.inf
        self.n_evals = 0

    def evaluate(self, z):
        """Counted evaluation that leaves the best-point record alone."""
        self.n_evals += 1
        return self.fn(z)

    def __call__(self, z):
        v, g = self.evaluate(np.asarray(z, dtype=float))
        if np.isfinite(v) and v > self.best_value:
            self.best_value = v
            self.best_z = np.array(z, dtype=float)
        return v, g


def maximize(value_and_grad, z0, hessian=None, lower=None,
             grad_tol=1e-8, step_tol=1e-10, max_iter=200):
    """Maximize a smooth function of unconstrained coordinates.

    value_and_grad: z -> (value, gradient). hessian: z -> (p, p) matrix used
    for Newton refinement once the quasi-Newton stage stalls. lower: optional
    per-coordinate lower bounds (np.nan / -inf for unbounded).
    """
    z0 = np.asarray(z0, dtype=float)
    track = _Tracker(value_and_grad)

    def neg(z):
        v, g = track(z)
        if not np.isfinite(v):
            return np.inf, np.zeros_like(z)
        return -v, -g

    bounds = None
    if lower is not None:
        bounds = [(lo if np.isfinite(lo) else None, None) for lo in lower]

    res = _scipy_minimize(
        neg, z0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": max_iter, "ftol": 1e-15, "gtol": grad_tol * 0.1,
                 "maxcor": 20})
    z = np.asarray(res.x, dtype=float)
    if track.best_z is not None and track.best_value > -res.fun:
        z = track.best_z.copy()

    z, value, grad = _newton_polish(track, hessian, z, lower,
                                    grad_tol, step_tol)

    # never return anything worse than the best point evaluated
    if track.best_value > value + 1e-12:
        z = track.best_z.copy()
        value, grad = track.evaluate(z)

    at_bound = False
    if lower is not None:
        at_bound = bool(np.any(np.isfinite(lower)
                               & (z <= np.asarray(lower) + 1e-9)))
    gnorm = float(np.linalg.norm(grad))
    converged = gnorm <= grad_tol and not at_bound
    return AscentResult(z=z, value=float(value), grad_norm=gnorm,
                        converged=converged, at_bound=at_bound,
                        n_evals=track.n_evals)


def _newton_polish(track, hessian, z, lower, grad_tol, step_tol):
    value, grad = track.evaluate(z)
    if hessian is None:
        return z, value, grad
    target = max(grad_tol * 1e-6, 1e-13)
    for _ in range(50):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= target:
            break
        H = hessian(z)
        if H is None:
            break
        step = _ascent_direction(H, grad)
        if step is None:
            break
        moved = False
        t = 1.0
        for _ in range(30):
            z_new = z + t * step
            if lower is not None:
                z_new = np.maximum(z_new, np.where(np.isfinite(lower),
                                                   lower, -np.inf))
            v_new, g_new = track.evaluate(z_new)
            # sufficient increase; near the optimum equal values with a
            # smaller gradient also count as progress
            if np.isfinite(v_new) and (
                    v_new >= value + 1e-4 * t * float(grad @ step)
                    or (v_new >= value - 1e-15 * max(1.0, abs(value))
                        and np.linalg.norm(g_new) < gnorm)):
                z, value, grad = z_new, v_new, g_new
                moved = True
                break
            t *= 0.5
        if not moved or np.linalg.norm(t * step) < step_tol * 1e-3:
            break
    return z, value, grad


def _ascent_direction(H, grad):
    """Solve (-H) d = grad with -H forced positive definite."""
    A = -0.5 * (H + H.T)
    p = A.shape[0]
    try:
        w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError:
        return None
    shift = max(0.0, 1e-10 - float(w.min()))
    try:
        return np.linalg.solve(A + shift * np.eye(p), grad)
    except np.linalg.LinAlgError:
        return None
