"""Values the benchmark checks the program against, computed apart from it.

Volumes come from closed forms (balls, boxes, ellipsoids, corner
simplices, half-balls) or from scipy's convex hull of the half-space
intersection (other polytopes).  Torsion functions come from closed forms
(balls, ellipsoids) or from a Fourier series (rectangles).  The 1-D
crossing law uses the reflection-principle closed forms and scipy's KS
test.  Nothing here calls into ``torsion_bound``; bodies and test
functions are read only for their defining parameters.

The comparison rules live here too: one-sided bound checks use 4 combined
standard errors (the program's own rule), two-sided closeness checks use
``Z_CLOSE`` standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import erf, erfc
from scipy.stats import kstest

GRADIENT_CONSTANT = math.sqrt(2.0) / math.pi

# One-sided bound checks: the 4-sigma rule of the program's reports.
Z_BOUND = 4.0
# Two-sided closeness checks.  A workload runs up to 28 of them per seed;
# at 4 sigma (false-alarm rate 6.3e-5 each) about one seed in 570 would
# fail by chance, at 5 sigma (5.7e-7) about one in 60,000.
Z_CLOSE = 5.0
# Kolmogorov critical value sqrt(-ln(alpha/2)/2) at alpha = 1e-5.
KS_CRIT = math.sqrt(-0.5 * math.log(0.5e-5))


# ---------------------------------------------------------------------------
# comparison rules


def at_most(value: float, bound: float, stderr: float) -> bool:
    """value <= bound up to Z_BOUND standard errors."""
    return value <= bound + Z_BOUND * stderr


def close(value: float, target: float, stderr: float,
          allowance: float = 0.0) -> bool:
    """|value - target| <= Z_CLOSE standard errors plus a bias allowance."""
    return abs(value - target) <= Z_CLOSE * stderr + allowance


# ---------------------------------------------------------------------------
# geometry


def omega(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def ball_area(n: int, radius: float) -> float:
    return n * omega(n) * radius ** (n - 1)


def simplex_scale(A: np.ndarray, c: np.ndarray) -> float | None:
    """s when {A x <= c} is the corner simplex {x >= 0, sum x <= s}."""
    n = A.shape[1]
    if A.shape[0] != n + 1:
        return None
    if not (np.allclose(A[:n], -np.eye(n), atol=1e-14)
            and np.allclose(c[:n], 0.0, atol=1e-14)
            and np.allclose(A[n], 1.0 / math.sqrt(n), atol=1e-14)):
        return None
    return float(c[n] * math.sqrt(n))


def hull_volume(A: np.ndarray, c: np.ndarray) -> float:
    """Volume of the bounded {A x <= c} via scipy's half-space intersection
    and convex hull, seeded at the Chebyshev center."""
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    res = linprog(np.r_[np.zeros(n), -1.0],
                  A_ub=np.hstack([A, norms[:, None]]), b_ub=c,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status != 0 or res.x[n] <= 0:
        raise ValueError("polytope has no interior point")
    hs = HalfspaceIntersection(np.hstack([A, -c[:, None]]), res.x[:n])
    return float(ConvexHull(hs.intersections).volume)


def _is_half_ball(body) -> bool:
    """A ball cut by one half-space whose plane passes through its center."""
    kinds = sorted(type(m).__name__ for m in body.members)
    if kinds != ["Ball", "Polytope"]:
        return False
    ball = next(m for m in body.members if type(m).__name__ == "Ball")
    cut = next(m for m in body.members if type(m).__name__ == "Polytope")
    return (len(cut.c) == 1
            and abs(float(cut.A[0] @ ball.center - cut.c[0])) <= 1e-14)


def volume(body) -> float:
    """Closed-form volume by body family (scipy hull for general polytopes)."""
    kind = type(body).__name__
    n = body.dimension
    if kind == "Ball":
        return omega(n) * body.radius ** n
    if kind == "Box":
        return float(np.prod(body.upper - body.lower))
    if kind == "Ellipsoid":
        return omega(n) * float(np.prod(body.semi_axes))
    if kind == "Polytope":
        s = simplex_scale(body.A, body.c)
        if s is not None:
            return s ** n / math.factorial(n)
        return hull_volume(body.A, body.c)
    if kind == "Intersection" and _is_half_ball(body):
        ball = next(m for m in body.members if type(m).__name__ == "Ball")
        return 0.5 * omega(n) * ball.radius ** n
    raise ValueError(f"no volume oracle for {kind}")


def level(body, x: np.ndarray) -> float:
    """A defining function: negative inside, zero on the boundary, scaled
    like a distance near the boundary."""
    kind = type(body).__name__
    if kind == "Ball":
        return float(np.linalg.norm(x - body.center) - body.radius)
    if kind == "Box":
        return float(np.max(np.maximum(body.lower - x, x - body.upper)))
    if kind == "Ellipsoid":
        q = math.sqrt(float(np.sum(((x - body.center) / body.semi_axes) ** 2)))
        return (q - 1.0) * float(body.semi_axes.min())
    if kind == "Polytope":
        return float(np.max(body.A @ x - body.c))
    if kind == "Intersection":
        return max(level(m, x) for m in body.members)
    raise ValueError(f"no level function for {kind}")


def diameter(body) -> float:
    """Diameter of a ball, box or ellipsoid."""
    kind = type(body).__name__
    if kind == "Ball":
        return 2.0 * body.radius
    if kind == "Box":
        return float(np.linalg.norm(body.upper - body.lower))
    if kind == "Ellipsoid":
        return 2.0 * float(body.semi_axes.max())
    raise ValueError(f"no diameter oracle for {kind}")


def shell_stretch(body) -> float:
    """How much deeper than the absorbing shell a walk can stop: the
    ellipsoid's certified distance understates the true one by up to
    b_max / b_min; the other distances are exact."""
    if type(body).__name__ == "Ellipsoid":
        return float(body.semi_axes.max() / body.semi_axes.min())
    return 1.0


def inradius(body) -> float:
    kind = type(body).__name__
    if kind == "Ball":
        return body.radius
    if kind == "Box":
        return 0.5 * float(np.min(body.upper - body.lower))
    if kind == "Ellipsoid":
        return float(body.semi_axes.min())
    if kind == "Polytope":
        n = body.dimension
        s = simplex_scale(body.A, body.c)
        if s is not None:
            return s / (n + math.sqrt(n))
    raise ValueError(f"no inradius oracle for {kind}")


def center_and_box(body):
    """(a point whose inscribed ball has radius inradius(body), bbox lo, hi)."""
    kind = type(body).__name__
    n = body.dimension
    if kind == "Ball":
        r = body.radius
        return body.center, body.center - r, body.center + r
    if kind == "Box":
        return 0.5 * (body.lower + body.upper), body.lower, body.upper
    if kind == "Ellipsoid":
        return body.center, body.center - body.semi_axes, body.center + body.semi_axes
    s = simplex_scale(body.A, body.c)
    if s is not None:
        return np.full(n, inradius(body)), np.zeros(n), np.full(n, s)
    raise ValueError(f"no center oracle for {kind}")


def deep_point(body, gen: np.random.Generator, shrink: float = 0.5) -> np.ndarray:
    """A random point at depth >= (1 - shrink) * inradius: a uniform point
    of the body pulled toward the incenter by ``shrink``."""
    c, lo, hi = center_and_box(body)
    for _ in range(10_000):
        p = gen.uniform(lo, hi)
        if level(body, p) < 0.0:
            return c + shrink * (p - c)
    raise RuntimeError("rejection sampling found no interior point")


# ---------------------------------------------------------------------------
# torsion functions (-lap u = 1, u = 0 on the boundary) and exit times


def ball_torsion(body, x: np.ndarray) -> float:
    r2 = float(np.sum((x - body.center) ** 2))
    return (body.radius ** 2 - r2) / (2.0 * body.dimension)


def ellipsoid_torsion(body, x: np.ndarray) -> float:
    b = body.semi_axes
    q = float(np.sum(((x - body.center) / b) ** 2))
    return (1.0 - q) / (2.0 * float(np.sum(b ** -2.0)))


def rectangle_torsion(x: float, y: float, a: float = 1.0, b: float = 1.0,
                      kmax: int = 4001) -> float:
    """Fourier series on (0,a) x (0,b): u = x(a-x)/2 - (4a^2/pi^3)
    sum_{k odd} sin(k pi x/a)/k^3 cosh(k pi (y - b/2)/a)/cosh(k pi b/(2a))."""
    k = np.arange(1, kmax, 2, dtype=float)
    kp = k * math.pi / a
    ratio = (np.exp(kp * (y - b)) + np.exp(-kp * y)) / (1.0 + np.exp(-kp * b))
    series = float(np.sum(np.sin(kp * x) / k ** 3 * ratio))
    return 0.5 * x * (a - x) - 4.0 * a * a / math.pi ** 3 * series


def square_edge_gradient(x: float, kmax: int = 200_001) -> float:
    """Inward normal derivative of the square torsion function at (x, 0)."""
    k = np.arange(1, kmax, 2, dtype=float)
    terms = np.tanh(k * math.pi / 2.0) * np.sin(k * math.pi * x) / k ** 2
    return 4.0 / math.pi ** 2 * float(np.sum(terms))


def torsion(body, x: np.ndarray) -> float | None:
    """Closed-form torsion value, or None where the benchmark has none."""
    kind = type(body).__name__
    if kind == "Ball":
        return ball_torsion(body, x)
    if kind == "Ellipsoid":
        return ellipsoid_torsion(body, x)
    if kind == "Box" and body.dimension == 2:
        a, b = body.upper - body.lower
        return rectangle_torsion(*(x - body.lower), a, b)
    return None


def theorem2_bound(n: int, vol: float) -> float:
    """The dimension-free gradient bound (sqrt(2)/pi) vol^{1/n}."""
    return GRADIENT_CONSTANT * vol ** (1.0 / n)


def ball_exit_bound(n: int, vol: float) -> float:
    """Expected exit time from any point: (1/n)(vol/omega_n)^{2/n}."""
    return (vol / omega(n)) ** (2.0 / n) / n


def near_boundary_exit_bound(eps: float, n: int, vol: float) -> float:
    """Expected exit time from an eps-deep point:
    eps (4/sqrt(pi)) n^{-1/2} (vol/omega_n)^{1/n}."""
    return eps * 4.0 / math.sqrt(math.pi) / math.sqrt(n) * (vol / omega(n)) ** (1.0 / n)


# ---------------------------------------------------------------------------
# first crossing of level eps by 1-D Brownian motion


def crossing_cdf(eps: float, t):
    return erfc(eps / np.sqrt(2.0 * np.asarray(t, dtype=float)))


def survival(eps: float, T: float) -> float:
    return float(erf(eps / math.sqrt(2.0 * T)))


def truncated_mean(eps: float, T: float) -> float:
    """int_0^T t psi(t) dt = eps sqrt(2T/pi) e^{-eps^2/(2T)}
    - eps^2 erfc(eps/sqrt(2T))."""
    return (eps * math.sqrt(2.0 * T / math.pi) * math.exp(-eps * eps / (2.0 * T))
            - eps * eps * float(erfc(eps / math.sqrt(2.0 * T))))


def truncated_mean_bound(eps: float, T: float) -> float:
    return eps * math.sqrt(2.0 / math.pi) * math.sqrt(T)


def density_max(eps: float) -> float:
    """sup_t psi(t), attained at t = eps^2 / 3."""
    t = eps * eps / 3.0
    return eps / math.sqrt(2.0 * math.pi) * t ** -1.5 * math.exp(-1.5)


def ks_limit(eps: float, horizon: float, dt: float, hits: int) -> float:
    """Largest KS distance accepted between crossing times recorded at the
    end of their step and the law conditioned on crossing by the horizon:
    the critical value plus the most the conditional CDF rises in one step."""
    step_rise = density_max(eps) * dt / float(crossing_cdf(eps, horizon))
    return KS_CRIT / math.sqrt(hits) + step_rise


def ks_conditional(times: np.ndarray, eps: float, horizon: float) -> float:
    total = float(crossing_cdf(eps, horizon))
    return float(kstest(times, lambda t: crossing_cdf(eps, t) / total).statistic)


# ---------------------------------------------------------------------------
# test functions, read from their JSON definition


def fn_values(doc: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate an affine, harmonic-polynomial or shifted-norm test
    function from its JSON definition."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    kind = doc["kind"]
    if kind == "affine":
        return doc["constant"] + X @ np.asarray(doc["linear"], dtype=float)
    if kind == "harmonic_polynomial":
        out = np.zeros(len(X))
        for term in doc["terms"]:
            out += term["coeff"] * np.prod(X ** np.asarray(term["powers"]), axis=1)
        return out
    if kind == "shifted_norm":
        return np.linalg.norm(X - np.asarray(doc["anchor"], dtype=float), axis=1)
    raise ValueError(f"no evaluator for {kind}")


def is_harmonic(doc: dict) -> bool:
    """True for affine functions and polynomials whose Laplacian, formed
    term by term from the JSON definition, cancels identically."""
    if doc["kind"] == "affine":
        return True
    if doc["kind"] != "harmonic_polynomial":
        return False
    lap: dict = {}
    for term in doc["terms"]:
        powers = term["powers"]
        for i, p in enumerate(powers):
            if p >= 2:
                reduced = tuple(q - 2 if j == i else q for j, q in enumerate(powers))
                lap[reduced] = lap.get(reduced, 0.0) + term["coeff"] * p * (p - 1)
    return all(abs(v) <= 1e-12 for v in lap.values())


def box_integral(doc: dict, lower: np.ndarray, upper: np.ndarray,
                 nodes: int = 4) -> float:
    """Tensor-product Gauss-Legendre integral over a box; exact for
    polynomials of degree <= 2 * nodes - 1 in each coordinate."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    n = len(lower)
    half = 0.5 * (upper - lower)
    mid = 0.5 * (upper + lower)
    grids = np.meshgrid(*[mid[i] + half[i] * x for i in range(n)], indexing="ij")
    weights = np.ones([nodes] * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = nodes
        weights = weights * (half[i] * w).reshape(shape)
    pts = np.column_stack([g.ravel() for g in grids])
    return float(np.sum(weights.ravel() * fn_values(doc, pts)))
