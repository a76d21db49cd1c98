"""Checkers for the outputs of each benchmark operation.

Every checker returns a list of problems; an empty list means the output
agrees with a computation made apart from the program (see reference.py).
The study checker also regenerates replication data with the program's own
counter-based streams, which is how its replications are defined.
"""
from __future__ import annotations

import math

import numpy as np

import reference as ref

FIT_OBJ_RTOL = 1e-9
STATIONARY_STEP = 1e-5     # Newton step bound in log coordinates
MLE_RTOL = 1e-8
ARE_NORMAL_TOL = 1e-8
ARE_QUAD_RTOL = 1e-6
SANDWICH_RTOL = 1e-6
FISHER_RTOL = 1e-7
PROJECTION_GRAD_RTOL = 1e-7
MOMENT_RTOL = 1e-7
INFO_INTEGRAL_RTOL = 1e-6
INTERCHANGE_TOL = 1e-6


def _close(a, b, rtol, atol=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(
        np.abs(a), np.abs(b))))


def read_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


# ----------------------------------------------------------------------
# fit-heavy-tail
# ----------------------------------------------------------------------

def _log_objective(fam, data, alpha):
    return lambda z: ref.dpd_objective(fam, data, np.exp(z), alpha)


def _fd_grad_hess(fn, z, h=1e-4):
    p = z.shape[0]
    f0 = fn(z)
    g = np.empty(p)
    H = np.empty((p, p))
    e = np.eye(p) * h
    for j in range(p):
        fp, fm = fn(z + e[j]), fn(z - e[j])
        g[j] = (fp - fm) / (2 * h)
        H[j, j] = (fp - 2 * f0 + fm) / h ** 2
        for k in range(j + 1, p):
            H[j, k] = H[k, j] = (fn(z + e[j] + e[k]) - fn(z + e[j] - e[k])
                                 - fn(z - e[j] + e[k])
                                 + fn(z - e[j] - e[k])) / (4 * h * h)
    return f0, g, H


def check_fit(doc, fam, data, alpha):
    """objective_value equals the objective recomputed from the data;
    theta_hat is a stationary local maximum of that objective (central
    differences in log coordinates); standard errors are finite and
    positive; K is symmetric positive semidefinite."""
    problems = []
    theta = np.asarray(doc["theta_hat"], dtype=float)
    if not doc["converged"] or doc["at_boundary"]:
        problems.append(f"fit not converged in the interior: {theta}")
    obj = ref.dpd_objective(fam, data, theta, alpha)
    if not _close(doc["objective_value"], obj, FIT_OBJ_RTOL, 1e-12):
        problems.append(f"objective_value {doc['objective_value']!r} != "
                        f"recomputed {obj!r}")
    _, g, H = _fd_grad_hess(_log_objective(fam, data, alpha), np.log(theta))
    eig = np.linalg.eigvalsh(0.5 * (H + H.T))
    if not np.all(eig < 0):
        problems.append(f"not a local maximum: Hessian eigenvalues {eig}")
    else:
        step = np.linalg.solve(-H, g)
        if np.max(np.abs(step)) > STATIONARY_STEP:
            problems.append(f"not stationary: Newton step {step} in log "
                            f"coordinates")
    ses = doc["standard_errors"]
    if ses is None or not all(math.isfinite(s) and s > 0 for s in ses):
        problems.append(f"standard errors not finite and positive: {ses}")
    sw = doc.get("sandwich")
    if sw is None:
        problems.append("no sandwich reported")
    else:
        K = np.asarray(sw["K"], dtype=float)
        scale = float(np.max(np.abs(K)))
        if not np.allclose(K, K.T, rtol=0, atol=1e-12 * scale):
            problems.append("K is not symmetric")
        if np.min(np.linalg.eigvalsh(K)) < -1e-10 * scale:
            problems.append(f"K is not positive semidefinite: "
                            f"{np.linalg.eigvalsh(K)}")
    return problems


# ----------------------------------------------------------------------
# study-closed-form
# ----------------------------------------------------------------------

def closed_form_mle(fam, x):
    if fam == "normal":
        m = np.mean(x)
        return np.array([m, math.sqrt(np.mean((x - m) ** 2))])
    if fam == "exponential":
        return np.array([1.0 / np.mean(x)])
    raise ValueError(fam)


def study_rows(csv_text, fam):
    p = ref.n_params(fam)
    names = {"normal": ("mu", "sigma"), "exponential": ("rate",)}[fam]
    rows = []
    for r in read_csv(csv_text):
        rows.append({
            "alpha": float(r["alpha"]), "n": int(r["n"]),
            "cell": int(r["cell"]), "rep": int(r["rep"]),
            "converged": r["converged"] == "1",
            "excluded": r["excluded"] == "1",
            "theta": np.array([float(r[f"est_{q}"]) for q in names[:p]]),
        })
    return rows


def check_study(csv_text, summary, spec, regenerate):
    """spec: family, theta, study, alphas, n_grid, reps, seed.
    regenerate(cell, rep, n) returns the replication's data."""
    fam, theta0 = spec["family"], np.asarray(spec["theta"], dtype=float)
    problems = []
    rows = study_rows(csv_text, fam)
    expected = len(spec["alphas"]) * len(spec["n_grid"]) * spec["reps"]
    if len(rows) != expected:
        problems.append(f"{len(rows)} replication rows, expected {expected}")
    bad = [r for r in rows if r["excluded"] or not r["converged"]]
    if bad:
        problems.append(f"{len(bad)} replications excluded or unconverged")
    for r in rows:
        if r["alpha"] != 0.0:
            continue
        mle = closed_form_mle(fam, regenerate(r["cell"], r["rep"], r["n"]))
        if not _close(r["theta"], mle, MLE_RTOL):
            problems.append(f"cell {r['cell']} rep {r['rep']}: estimate "
                            f"{r['theta']} != closed-form MLE {mle}")
            break
    cells = {}
    for r in rows:
        cells.setdefault((r["alpha"], r["n"]), []).append(r["theta"])
    for c in summary["cells"]:
        if c["n_excluded"] != 0:
            problems.append(f"summary cell {c['cell']} excludes "
                            f"{c['n_excluded']} replications")
    if spec["study"] == "consistency":
        for a in spec["alphas"]:
            meds = []
            for n in spec["n_grid"]:
                est = np.asarray(cells.get((float(a), n), []))
                if est.size == 0:
                    meds.append(math.inf)
                    continue
                err = np.linalg.norm(_working(fam, est)
                                     - _working(fam, theta0[None, :]), axis=1)
                meds.append(float(np.median(err)))
            if not all(m2 < m1 for m1, m2 in zip(meds, meds[1:])):
                problems.append(f"alpha={a}: median errors {meds} do not "
                                f"fall along the n grid")
    else:
        R = spec["reps"]
        tol = 6 * math.sqrt(2 / (R - 1))
        for a in spec["alphas"]:
            _, _, sigma = ref.sandwich_parts(fam, theta0, [(fam, theta0, 1.0)],
                                             float(a))
            for n in spec["n_grid"]:
                est = np.asarray(cells.get((float(a), n), []))
                if est.shape[0] < 2:
                    problems.append(f"alpha={a} n={n}: too few estimates")
                    continue
                z = math.sqrt(n) * (est - theta0[None, :])
                cov = np.atleast_2d(np.cov(z, rowvar=False))
                d = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
                rel = np.abs(cov - sigma) / d
                if np.max(rel) > tol:
                    problems.append(
                        f"alpha={a} n={n}: covariance {cov.tolist()} vs "
                        f"asymptotic {sigma.tolist()} (max rel "
                        f"{np.max(rel):.3f} > {tol:.3f})")
    return problems


def _working(fam, theta):
    theta = np.array(theta, dtype=float)
    if fam == "normal":
        theta[:, 1] = np.log(theta[:, 1])
    else:
        theta = np.log(theta)
    return theta


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------

def check_sweep(csv_text, fam, theta):
    """ARE per coordinate against quadrature sandwiches made apart; the
    closed form (1+2a)^(3/2)/(1+a)^3 for the normal location; 1 at a=0."""
    problems = []
    rows = read_csv(csv_text)
    g = [(fam, np.asarray(theta, dtype=float), 1.0)]
    base = None
    for r in rows:
        a = float(r["alpha"])
        are = np.array([float(v) for k, v in r.items() if k.startswith("are_")])
        if a == 0.0 and not _close(are, 1.0, 1e-12):
            problems.append(f"ARE at alpha=0 is {are}, not 1")
        if fam in ("normal", "normal_loc"):
            if abs(are[0] - ref.normal_are_mu(a)) > ARE_NORMAL_TOL:
                problems.append(f"alpha={a}: ARE_mu {are[0]!r} != "
                                f"{ref.normal_are_mu(a)!r}")
        if base is None:
            base = np.diag(ref.sandwich_parts(fam, g[0][1], g, 0.0)[2])
        sig = np.diag(ref.sandwich_parts(fam, g[0][1], g, a)[2])
        if not _close(are, base / sig, ARE_QUAD_RTOL):
            problems.append(f"alpha={a}: ARE {are} != quadrature "
                            f"{base / sig}")
    if not rows:
        problems.append("empty efficiency curve")
    return problems


def check_diagnose(doc, fam, theta, g, alpha, expect=None):
    """Information integrals against quadrature made apart; verdicts
    consistent with the reported numbers; for the normal family at
    alpha > 0 the score-bound sups against their closed form. expect maps
    verdict names to required values."""
    problems = []
    theta = np.asarray(theta, dtype=float)
    model, true = ref.info_integrals(fam, theta, g, alpha)
    if not _close([doc["info_integral_model"], doc["info_integral_true"]],
                  [model, true], INFO_INTEGRAL_RTOL):
        problems.append(
            f"info integrals {doc['info_integral_model']!r}, "
            f"{doc['info_integral_true']!r} != quadrature {model!r}, {true!r}")
    v = doc["verdicts"]
    if (v["interchange"] == "pass") != (doc["interchange_error"]
                                        < INTERCHANGE_TOL):
        problems.append("interchange verdict disagrees with its error")
    if (v["score_bound"] == "pass") != all(doc["score_bound_bounded"]):
        problems.append("score_bound verdict disagrees with its flags")
    if fam == "normal" and alpha > 0:
        sups = ref.normal_score_sups(theta, alpha)
        got = np.asarray(doc["score_bound_sups"])
        if not (np.all(got <= sups * (1 + 1e-9))
                and np.all(got >= sups * (1 - 1e-3))):
            problems.append(f"score sups {got} vs closed form {sups}")
    for key, want in (expect or {}).items():
        got = (doc["interchange_error"] < INTERCHANGE_TOL
               if key == "interchange_below_tol" else v[key])
        if got != want:
            problems.append(f"{key} is {got!r}, expected {want!r}")
    return problems


def check_projection(doc, fam, g, alpha, moment_match=None):
    """An alpha > 0 projection is a zero of the population gradient
    (quadrature made apart); an alpha = 0 projection onto the normal
    family is the moment match; the sandwich at the projection equals
    quadrature K, J and sigma made apart."""
    problems = []
    theta = np.asarray(doc["theta"], dtype=float)
    if moment_match is not None:
        if not _close(theta, moment_match, MOMENT_RTOL):
            problems.append(f"projection {theta} != moment match "
                            f"{moment_match}")
    else:
        grad, scale = ref.population_gradient(fam, theta, g, alpha)
        if np.any(np.abs(grad) > PROJECTION_GRAD_RTOL * scale):
            problems.append(f"population gradient {grad} at the projection "
                            f"{theta} (scale {scale})")
    K, J, sigma = ref.sandwich_parts(fam, theta, g, alpha)
    for name, want in (("K", K), ("J", J), ("sigma", sigma)):
        got = np.asarray(doc[name], dtype=float)
        d = np.sqrt(np.outer(np.abs(np.diag(want)), np.abs(np.diag(want))))
        if np.max(np.abs(got - want) / d) > SANDWICH_RTOL:
            problems.append(f"{name} {got.tolist()} != quadrature "
                            f"{want.tolist()}")
    return problems


def check_model_sandwich(doc, fam, theta):
    """The alpha = 0 sandwich at a model point is the inverse Fisher
    information in closed form."""
    want = ref.inverse_fisher(fam, np.asarray(theta, dtype=float))
    got = np.asarray(doc["sigma"], dtype=float)
    d = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    if np.max(np.abs(got - want) / d) > FISHER_RTOL:
        return [f"alpha=0 sandwich {got.tolist()} != inverse Fisher "
                f"information {want.tolist()}"]
    return []
