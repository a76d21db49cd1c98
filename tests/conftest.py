import os

import mpmath
import numpy as np
import pytest

from mindpd.families import (Exponential, GeneralizedPareto, Normal,
                             NormalLocation, Poisson)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# one line per acceptance criterion, echoed after the run (survives capture)
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

# fixed 10-point sample used by the frozen objective/estimator oracles
OBJ10 = np.array([0.341031, 1.931697, 1.769665, -0.312368, -0.057563,
                  -0.332861, 0.983672, 0.232723, 1.196263, -1.91679])


@pytest.fixture(scope="session")
def normal():
    return Normal()


@pytest.fixture(scope="session")
def exponential():
    return Exponential()


@pytest.fixture(scope="session")
def poisson():
    return Poisson()


@pytest.fixture(scope="session")
def gpd():
    return GeneralizedPareto()


@pytest.fixture(scope="session")
def normal_loc():
    return NormalLocation(1.0)


def family_grid():
    """(family, list of feasible test points) for every built-in."""
    return [
        (Normal(), [np.array([0.0, 1.0]), np.array([1.2, 0.7]),
                    np.array([-3.0, 2.5])]),
        (NormalLocation(1.3), [np.array([0.0]), np.array([-2.2])]),
        (Exponential(), [np.array([1.0]), np.array([0.35]),
                         np.array([4.0])]),
        (Poisson(), [np.array([3.0]), np.array([0.8]), np.array([11.0])]),
        (GeneralizedPareto(), [np.array([0.2, 1.5]), np.array([0.45, 0.6]),
                               np.array([0.1, 3.0])]),
    ]


def random_feasible(fam, rng):
    """Draw a feasible parameter point well inside the box."""
    if fam.name == "normal":
        return np.array([rng.uniform(-3, 3), rng.uniform(0.3, 3.0)])
    if fam.name == "normal_loc":
        return np.array([rng.uniform(-3, 3)])
    if fam.name in ("exponential", "poisson"):
        return np.array([rng.uniform(0.3, 5.0)])
    if fam.name == "gpd":
        return np.array([rng.uniform(0.05, 0.45), rng.uniform(0.4, 3.0)])
    raise ValueError(fam.name)


def fd_gradient(fn, x, rel_step=6e-6):
    """Central finite differences; the independent oracle for gradients."""
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(np.abs(x), 1.0)
    out = []
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h[j]
        out.append((fn(x + e) - fn(x - e)) / (2 * h[j]))
    return np.stack(out, axis=-1)


def _poly_mul(p, q):
    out = {}
    for (j1, k1), a in p.items():
        for (j2, k2), b in q.items():
            out[j1 + j2, k1 + k2] = out.get((j1 + j2, k1 + k2), 0) + a * b
    return out


def _poly_add(*terms):
    """Sum of coef * poly over (coef, poly) pairs."""
    out = {}
    for coef, poly in terms:
        for key, a in poly.items():
            out[key] = out.get(key, 0) + coef * a
    return out


def gpd_terms_mpmath(xi, beta, alpha, dps=80):
    """The four gpd model integrals (plain, score, score outer, info) at
    (xi, beta, alpha), as mpf values at dps digits.

    The score and information entries are written as polynomials in
    w = 1/z and t = log z, z = 1 + xi x / beta, and integrated term by term
    with int f^(1+alpha) w^j t^k dx = beta^-alpha xi^-1 k! / (c+j-1)^(k+1),
    c = (1+alpha)(1+xi)/xi. The sum cancels heavily as xi -> 0, which the
    working precision absorbs.
    """
    with mpmath.workdps(dps):
        xi, beta, alpha = (mpmath.mpf(float(v)) for v in (xi, beta, alpha))
        c = (1 + alpha) * (1 + xi) / xi

        def integral(poly):
            return mpmath.fsum(
                a * mpmath.factorial(k) / (c + j - 1) ** (k + 1)
                for (j, k), a in poly.items()) * beta ** -alpha / xi

        one, w, t = {(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}
        r = _poly_add((1, one), (-1, w))
        r2 = _poly_mul(r, r)
        s_xi = _poly_add((1 / xi ** 2, t), (-(1 + xi) / xi ** 2, r))
        s_beta = _poly_add((-1 / beta, one), ((1 + xi) / (xi * beta), r))
        i00 = _poly_add((2 / xi ** 3, t), (-2 / xi ** 3, r),
                        (-1 / xi ** 3 - 1 / xi ** 2, r2))
        i01 = _poly_add((-1 / (xi * beta), _poly_mul(r, w)),
                        (1 / (xi ** 2 * beta), r2))
        i11 = _poly_add(((1 + xi) / xi / beta ** 2 - 1 / beta ** 2, one),
                        (-(1 + xi) / xi / beta ** 2, _poly_mul(w, w)))
        s = (s_xi, s_beta)
        return (integral(one),
                [integral(e) for e in s],
                [[integral(_poly_mul(a, b)) for b in s] for a in s],
                [[integral(e) for e in row]
                 for row in ((i00, i01), (i01, i11))])
