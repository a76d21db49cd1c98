"""Shared smooth maximization core: one damped Newton ascent.

``maximize`` runs Newton with the analytic Hessian and a backtracking
sufficient-increase line search on every row of a batch of points at once:
each step makes one call of the objective for all unfinished rows, each row
has its own line search, and a row is frozen once it has finished, so no
row's arithmetic depends on the others. A single fit runs its starts as one
batch; the Monte Carlo harness runs every replication and start of a chunk
of a cell as one batch.

An accepted step raises a row's value, or, while the gradient falls,
leaves it within the objective's rounding (a tie, or a step whose predicted
increase is below it); so the returned point is, up to that rounding, at
least as good as every point the row reached.

Where -H is not safely positive definite (its smallest eigenvalue
lambda_min below a floor of min(1e-8 max|lambda|, |g|)), the Newton system
gets a Levenberg shift of 2|lambda_min| + floor, so the step stays an
ascent direction of bounded length. Capping the floor at the gradient norm
keeps a coordinate of zero curvature moving beside one of huge curvature,
such as a degenerate sample's scale beside its location.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AscentResult:
    z: np.ndarray
    value: float
    grad_norm: float
    converged: bool
    at_bound: bool
    n_evals: int


def at_lower_bound(z, lower):
    """Whether z (or each row of a batch z) sits on a finite lower bound."""
    if lower is None:
        return np.zeros(np.shape(z)[:-1], dtype=bool)
    return np.any(np.isfinite(lower) & (z <= np.asarray(lower) + 1e-9),
                  axis=-1)


def maximize(evaluate, z0, hessian, lower=None, grad_tol=1e-8,
             step_tol=1e-10):
    """Damped Newton ascent from every row of the starting points z0 (R, p).

    evaluate(rows, zs) gives the values (k,) and gradients (k, p) of the
    batch rows ``rows`` at the points zs (k, p), -inf where a point is
    unusable; hessian(rows, zs) gives their Hessians (k, p, p), NaN where
    unavailable. lower: optional per-coordinate lower bounds (NaN / -inf
    for unbounded), onto which trial points are clipped. A row stops once
    its gradient is negligible or it can make no progress.

    Returns one AscentResult per row; a row has converged when its gradient
    norm is within grad_tol away from the bounds.
    """
    z = np.array(z0, dtype=float)
    n_evals = np.zeros(z.shape[0], dtype=int)

    def counted(rows, zs):
        n_evals[rows] += 1
        return evaluate(rows, zs)

    value, grad = counted(np.arange(z.shape[0]), z)
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
            v_new, g_new = counted(r, z_new)
            v_old = value[r]
            # sufficient increase; a smaller gradient also counts as
            # progress where the value ties, or where the predicted
            # increase is below what the objective's rounding resolves
            tie = 1e-15 * np.maximum(1.0, np.abs(v_old))
            accept = np.isfinite(v_new) & (
                (v_new >= v_old + 1e-4 * t[k] * slope[k])
                | (((v_new >= v_old - tie) | (t[k] * slope[k] <= tie))
                   & (np.linalg.norm(g_new, axis=-1) < gnorm[r])))
            r = r[accept]
            z[r], value[r], grad[r] = z_new[accept], v_new[accept], \
                g_new[accept]
            searching[k[accept]] = False
            t[k[~accept]] *= 0.5
        stalled = searching | (np.linalg.norm(t[:, None] * step, axis=-1)
                               < step_tol * 1e-3)
        active[rows[stalled]] = False

    gnorm = np.linalg.norm(grad, axis=-1)
    at_bound = at_lower_bound(z, lower)
    converged = (gnorm <= grad_tol) & ~at_bound & np.isfinite(value)
    return [AscentResult(z=z[k], value=float(value[k]),
                         grad_norm=float(gnorm[k]),
                         converged=bool(converged[k]),
                         at_bound=bool(at_bound[k]), n_evals=int(n_evals[k]))
            for k in range(z.shape[0])]


def _ascent_direction(H, grad):
    """Solve (-H) d = grad for each row of H (k, p, p) and grad (k, p),
    with -H shifted to be safely positive definite; NaN rows where the
    system cannot be solved."""
    A = -0.5 * (H + np.swapaxes(H, -1, -2))
    out = np.full(grad.shape, np.nan)
    ok = np.all(np.isfinite(A), axis=(-2, -1))
    try:
        out[ok] = _levenberg_step(A[ok], grad[ok])
    except np.linalg.LinAlgError:
        # one failing matrix fails the whole stack: retry row by row
        if len(H) > 1:
            return np.concatenate([_ascent_direction(H[i:i + 1],
                                                     grad[i:i + 1])
                                   for i in range(len(H))])
    return out


def _levenberg_step(A, b):
    w = np.linalg.eigvalsh(A)
    floor = np.minimum(1e-8 * np.max(np.abs(w), axis=-1),
                       np.linalg.norm(b, axis=-1))
    lam_min = w[:, 0]
    shift = np.where(lam_min < floor, 2 * np.abs(lam_min) + floor, 0.0)
    A = A + shift[:, None, None] * np.eye(A.shape[-1])
    return np.linalg.solve(A, b[..., None])[..., 0]
