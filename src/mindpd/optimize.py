"""Shared smooth maximization core.

Quasi-Newton ascent (scipy L-BFGS-B on the negated objective, analytic
gradient, optional lower bounds for floored scale coordinates) followed by
Newton refinement with the analytic Hessian and a backtracking
sufficient-increase line search. Tracks every evaluated point so callers can
guarantee the returned point is at least as good as anything visited.

The Newton stage is batch-native: ``newton_polish`` advances every
unfinished row of a batch of points with one call of the objective per
step, each row with its own line search, and freezes a row once it has
finished; no row's arithmetic depends on the others. ``maximize`` takes
the same batch objective and runs it on a batch of one; the Monte Carlo
harness runs it on all replications of a cell at once. Where -H is not
safely positive definite (its smallest eigenvalue lambda_min below 1e-8
max|lambda|), the Newton system gets a Levenberg shift of 2|lambda_min| +
1e-8 max|lambda|, so the step stays an ascent direction of bounded
length.
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
    """Wraps a batch objective, counting every evaluation and remembering
    the best point the quasi-Newton stage saw."""

    def __init__(self, evaluate):
        self.fn = evaluate
        self.best_z = None
        self.best_value = -np.inf
        self.n_evals = 0

    def evaluate(self, rows, zs):
        """Counted evaluation that leaves the best-point record alone."""
        self.n_evals += 1
        return self.fn(rows, zs)

    def __call__(self, z):
        """The objective at one point z (p,), as scipy takes it."""
        v, g = self.evaluate(_FIRST, np.asarray(z, dtype=float)[None])
        v, g = float(v[0]), g[0]
        if np.isfinite(v) and v > self.best_value:
            self.best_value = v
            self.best_z = np.array(z, dtype=float)
        return v, g


_FIRST = np.zeros(1, dtype=np.intp)


def maximize(evaluate, z0, hessian=None, lower=None,
             grad_tol=1e-8, step_tol=1e-10, max_iter=200):
    """Maximize a smooth function of unconstrained coordinates.

    evaluate and hessian are a batch objective as newton_polish takes it,
    here of one point: evaluate(rows, zs) with rows [0] and zs (1, p) gives
    the value (1,) and gradient (1, p), and hessian(rows, zs) the Hessian
    (1, p, p), NaN where it cannot be computed, for Newton refinement once
    the quasi-Newton stage stalls. lower: optional per-coordinate lower
    bounds (np.nan / -inf for unbounded).
    """
    z0 = np.asarray(z0, dtype=float)
    track = _Tracker(evaluate)

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

    z, value, grad = newton_polish(track.evaluate, hessian, z[None], lower,
                                   grad_tol, step_tol)
    z, value, grad = z[0], float(value[0]), grad[0]

    # never return anything worse than the best point evaluated
    if track.best_value > value + 1e-12:
        z = track.best_z.copy()
        value, grad = track(z)

    at_bound = bool(at_lower_bound(z, lower))
    gnorm = float(np.linalg.norm(grad))
    converged = gnorm <= grad_tol and not at_bound
    return AscentResult(z=z, value=float(value), grad_norm=gnorm,
                        converged=converged, at_bound=at_bound,
                        n_evals=track.n_evals)


def at_lower_bound(z, lower):
    """Whether z (or each row of a batch z) sits on a finite lower bound."""
    if lower is None:
        return np.zeros(np.shape(z)[:-1], dtype=bool)
    return np.any(np.isfinite(lower) & (z <= np.asarray(lower) + 1e-9),
                  axis=-1)


def newton_polish(evaluate, hessian, z, lower, grad_tol, step_tol):
    """Damped Newton ascent on every row of the points z (R, p) at once.

    evaluate(rows, zs) gives the values (k,) and gradients (k, p) of the
    batch rows ``rows`` at the points zs (k, p), -inf where a point is
    unusable; hessian(rows, zs) gives their Hessians (k, p, p), NaN where
    unavailable. Each row has its own backtracking sufficient-increase line
    search and stops once its gradient is negligible or it can make no
    progress. Returns the final points, values and gradients.
    """
    z = np.array(z, dtype=float)
    value, grad = evaluate(np.arange(z.shape[0]), z)
    if hessian is None:
        return z, value, grad
    floor = None if lower is None else np.where(np.isfinite(lower), lower,
                                                -np.inf)
    target = max(grad_tol * 1e-6, 1e-13)
    active = np.ones(z.shape[0], dtype=bool)
    for _ in range(50):
        gnorm = np.linalg.norm(grad, axis=-1)
        active &= gnorm > target
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        step = _ascent_direction(hessian(rows, z[rows]), grad[rows])
        solved = np.all(np.isfinite(step), axis=-1)
        active[rows[~solved]] = False
        rows, step = rows[solved], step[solved]
        slope = np.sum(grad[rows] * step, axis=-1)
        t = np.ones(rows.size)
        searching = np.ones(rows.size, dtype=bool)
        for _ in range(30):
            k = np.flatnonzero(searching)
            if k.size == 0:
                break
            r = rows[k]
            z_new = z[r] + t[k, None] * step[k]
            if floor is not None:
                z_new = np.maximum(z_new, floor)
            v_new, g_new = evaluate(r, z_new)
            v_old = value[r]
            # sufficient increase; near the optimum equal values with a
            # smaller gradient also count as progress
            accept = np.isfinite(v_new) & (
                (v_new >= v_old + 1e-4 * t[k] * slope[k])
                | ((v_new >= v_old - 1e-15 * np.maximum(1.0, np.abs(v_old)))
                   & (np.linalg.norm(g_new, axis=-1) < gnorm[r])))
            r = r[accept]
            z[r], value[r], grad[r] = z_new[accept], v_new[accept], \
                g_new[accept]
            searching[k[accept]] = False
            t[k[~accept]] *= 0.5
        stalled = searching | (np.linalg.norm(t[:, None] * step, axis=-1)
                               < step_tol * 1e-3)
        active[rows[stalled]] = False
    return z, value, grad


def _ascent_direction(H, grad):
    """Solve (-H) d = grad for each row of H (k, p, p) and grad (k, p),
    with -H shifted to be safely positive definite; NaN rows where the
    system cannot be solved."""
    A = -0.5 * (H + np.swapaxes(H, -1, -2))
    out = np.full(grad.shape, np.nan)
    ok = np.all(np.isfinite(A), axis=(-2, -1))
    try:
        out[ok] = _shifted_solve(A[ok], grad[ok])
    except np.linalg.LinAlgError:
        # one failing matrix fails the whole stack: retry row by row
        if len(H) > 1:
            return np.concatenate([_ascent_direction(H[i:i + 1],
                                                     grad[i:i + 1])
                                   for i in range(len(H))])
    return out


def _shifted_solve(A, b):
    w = np.linalg.eigvalsh(A)
    floor = 1e-8 * np.max(np.abs(w), axis=-1)
    lam_min = w[:, 0]
    shift = np.where(lam_min < floor, 2 * np.abs(lam_min) + floor, 0.0)
    A = A + shift[:, None, None] * np.eye(A.shape[-1])
    return np.linalg.solve(A, b[..., None])[..., 0]
