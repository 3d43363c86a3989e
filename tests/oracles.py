"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
library code it checks: frozen 50-digit values for the normal CDF,
Fourier series and five-point finite differences for the square torsion
problem, ray casting for distances, 50-digit Newton iteration for the exact
ellipsoid distance, central differences for Laplacians, radial or tensor
quadrature for polynomial integrals over balls, ellipsoids and boxes,
sphere moments and Dirichlet integrals for the cubature rules, and
rational arithmetic for polynomial values.  The library's earlier loops
(the per-path and unfloored block crossing simulations, the per-slot draws
and walk, the row-by-row box and polytope reductions, the twice-keyed
unit-ball draw) are kept verbatim as references that the faster code must
match bit for bit, its earlier polytope face areas by linear programs as
the reference for the vertex-enumerated ones, and its earlier ``pow``
polynomial kernel as the error reference for the multiplication kernel.
Uniform laws on simplices and polytopes are checked against closed-form
moments summed over a qhull triangulation, and the half-ball volume, area
and boundary height moment against mpmath quadrature over slices.  The
ellipsoid area is checked against mpmath quadrature in s of its Gaussian
integral, which the library takes by the trapezoid rule in log s.
"""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import gammaln

# Standard normal CDF, frozen from a 50-digit arbitrary-precision
# computation (mpmath.ncdf at dps=50).
PHI_HIGH_PRECISION = {
    0.1: 0.53982783727702898367,
    0.5: 0.69146246127401310364,
    1.0: 0.84134474606854294859,
    1.5: 0.933192798731141934,
    2.0: 0.9772498680518207928,
    3.0: 0.99865010196836990547,
    4.0: 0.99996832875816688008,
    6.0: 0.99999999901341235496,
}

# 2 - 2 Phi(1) and the closed-form truncated first moment at eps = T = 1,
# same 50-digit source.
CDF_AT_ONE = 0.31731050786291410283
TRUNCATED_MEAN_AT_ONE = 0.16663094117537259677

# Fourier-series values for -lap u = 1 on the unit square (u = 0 on the
# boundary): interior values and the mid-edge inward normal derivative,
# which is the boundary maximum by symmetry and monotonicity.
SQUARE_TORSION_CENTER = 0.0736713532815138156
SQUARE_TORSION_QUARTER = 0.0573349064746083336  # u(1/4, 1/2)
SQUARE_EDGE_MAX_GRADIENT = 0.337657228991638

# Five-point finite-difference value at 511 interior nodes per axis
# (512 intervals), computed with fd_square_torsion below; differs from the
# series value by the O(h^2) discretization error ~ 2.2e-7.
SQUARE_TORSION_CENTER_FD512 = 0.0736711318


def square_torsion_series(x: float, y: float, kmax: int = 400) -> float:
    """Series solution of -lap u = 1 on (0,1)^2 with zero boundary data."""
    total = 0.0
    for k in range(1, kmax, 2):
        kp = k * math.pi
        # sinh ratio computed via exponentials to avoid overflow
        ratio = (math.exp(kp * (y - 1.0)) + math.exp(-kp * y)
                 - math.exp(kp * (y - 2.0)) - math.exp(-kp * (y + 2.0))) \
            / (1.0 - math.exp(-2.0 * kp))
        total += ratio * math.sin(kp * x) / k**3
    return x * (1.0 - x) / 2.0 - 4.0 / math.pi**3 * total


def square_edge_gradient(x: float, kmax: int = 20001) -> float:
    """Inward normal derivative of the square torsion function at (x, 0)."""
    total = 0.0
    for k in range(1, kmax, 2):
        total += math.tanh(k * math.pi / 2.0) * math.sin(k * math.pi * x) / k**2
    return 4.0 / math.pi**2 * total


def fd_square_torsion(m: int) -> tuple[np.ndarray, float]:
    """Five-point finite-difference solution of -lap u = 1 on (0,1)^2,
    m interior nodes per axis; returns (grid, spacing)."""
    h = 1.0 / (m + 1)
    main = sp.diags([-1, 2, -1], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    A = (sp.kron(eye, main) + sp.kron(main, eye)).tocsr()
    u = spsolve(A, np.full(m * m, h * h))
    return u.reshape(m, m), h


def ray_distance(body, x: np.ndarray, n_dirs: int = 4096,
                 seed: int = 0) -> float:
    """Distance to the boundary by casting dense random rays from x and
    bisecting the membership predicate along each; upper-biased by the
    angular resolution only."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 77],
                                                            dtype=np.uint64)))
    n = x.size
    dirs = gen.standard_normal((n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lo_all = np.zeros(n_dirs)
    hi_all = np.full(n_dirs, float(body.diameter) + 1.0)
    for _ in range(60):
        mid = 0.5 * (lo_all + hi_all)
        inside = body.contains_many(x + mid[:, None] * dirs)
        lo_all = np.where(inside, mid, lo_all)
        hi_all = np.where(inside, hi_all, mid)
    return float(lo_all.min())


def fd_laplacian(fn, x: np.ndarray, h: float = 1e-4) -> float:
    """Central-difference Laplacian of a test function at x."""
    total = 0.0
    fx = fn(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        total += fn(x + e) - 2.0 * fx + fn(x - e)
    return total / (h * h)


def ks_statistic_scipy(times, cdf_fn) -> float:
    """KS statistic via scipy.stats, as a cross-check of the library's."""
    from scipy.stats import kstest

    return float(kstest(times, cdf_fn).statistic)


def hitting_times_loop(law, count: int, dt: float, horizon: float,
                       seed: int) -> tuple[np.ndarray, int]:
    """Reference for simulate_hitting_times: one fresh Philox generator and
    one pass of 1-D numpy calls per path (the library's earlier loop).
    Returns the crossing times and the censored count."""
    from torsion_bound import rng

    eps = law.epsilon
    nsteps = int(round(horizon / dt))
    sqdt = math.sqrt(dt)
    key = rng.derive(seed, 0xB10)
    times = []
    censored = 0
    for i in range(count):
        gen = rng.path_generator(key, i)
        x = np.cumsum(gen.standard_normal(nsteps) * sqdt)
        gap_prev = eps - np.concatenate(([0.0], x[:-1]))
        gap_next = eps - x
        crossed = gap_next <= 0.0
        p = np.zeros(nsteps)
        below = ~crossed
        p[below] = np.exp(-2.0 * gap_prev[below] * gap_next[below] / dt)
        fire = crossed | (gen.random(nsteps) < p)
        k = int(np.argmax(fire))
        if fire[k]:
            times.append((k + 1) * dt)
        else:
            censored += 1
    return np.array(times), censored


def hitting_times_block(law, count: int, dt: float, horizon: float,
                        seed: int) -> tuple[np.ndarray, int]:
    """Reference for simulate_hitting_times: the library's block loop as
    it was before it floored the bridge exponents, exp evaluated on every
    lane.  Returns the crossing times and the censored count."""
    from torsion_bound import rng
    from torsion_bound.brownian_1d import _BLOCK_STEPS

    eps = law.epsilon
    nsteps = int(round(horizon / dt))
    sqdt = math.sqrt(dt)
    key = rng.derive(seed, 0xB10)
    rows = min(count, max(1, _BLOCK_STEPS // nsteps))
    # block arrays, reused: normals become positions, then gaps to the level
    normals = np.empty((rows, nsteps))
    unif = np.empty((rows, nsteps))
    bridge = np.empty((rows, nsteps))
    times = []
    censored = 0
    for first in range(0, count, rows):
        m = min(rows, count - first)
        gap, u, p = normals[:m], unif[:m], bridge[:m]
        rng.path_draws(key, first, gap, u)
        gap *= sqdt
        np.cumsum(gap, axis=1, out=gap)
        np.subtract(eps, gap, out=gap)
        np.maximum(gap, 0.0, out=gap)
        # p = exp(-2 a b / dt) with a the gap before the step, b after it
        p[:, 0] = -2.0 * eps
        np.multiply(gap[:, :-1], -2.0, out=p[:, 1:])
        p *= gap
        p /= dt
        np.exp(p, out=p)
        fire = u < p
        k = np.argmax(fire, axis=1)
        hit = fire[np.arange(m), k]
        times.append((k[hit] + 1) * dt)
        censored += m - int(np.count_nonzero(hit))
    return np.concatenate(times), censored


def ellipse_boundary_gradient_max(semi_axes, coefficient: float,
                                  n_grid: int = 200_000) -> float:
    """Dense parametric maximization of |grad u| over an ellipse boundary
    for u = c (1 - x^2/a^2 - y^2/b^2) in 2-D."""
    a, b = semi_axes
    t = np.linspace(0.0, 2.0 * np.pi, n_grid)
    x, y = a * np.cos(t), b * np.sin(t)
    gx = -2.0 * coefficient * x / a**2
    gy = -2.0 * coefficient * y / b**2
    return float(np.max(np.hypot(gx, gy)))


# ---------------------------------------------------------------------------
# Polynomial values (the earlier pow kernel and exact rationals),
# closed-form integrals of polynomial test functions over balls and boxes,
# and the exact ellipsoid distance by Newton iteration.


def as_polynomial(fn, n: int) -> dict | None:
    """Term dict {powers tuple: coefficient} of a polynomial test function
    in n variables, or None when the function is not polynomial."""
    from torsion_bound import hh_verifier as hh

    if isinstance(fn, hh.Affine):
        terms = {tuple([0] * n): fn.constant}
        for i, a in enumerate(fn.linear):
            if a != 0.0:
                p = [0] * n
                p[i] = 1
                terms[tuple(p)] = float(a)
        return terms
    if isinstance(fn, hh.Quadratic):
        terms: dict = defaultdict(float)
        terms[tuple([0] * n)] += fn.constant + float(fn.center @ fn.center)
        for i in range(n):
            sq = [0] * n
            sq[i] = 2
            terms[tuple(sq)] += 1.0
            lin = [0] * n
            lin[i] = 1
            terms[tuple(lin)] += fn.linear[i] - 2.0 * fn.center[i]
        return dict(terms)
    if isinstance(fn, hh.HarmonicPolynomial):
        return dict(fn.terms)
    if isinstance(fn, hh.PositiveCombination):
        total: dict = defaultdict(float)
        for w, part in fn.parts:
            terms = as_polynomial(part, n)
            if terms is None:
                return None
            for p, c in terms.items():
                total[p] += w * c
        return dict(total)
    return None


def sampled(fn):
    """fn with no degree: the same values and Laplacian, but volume_integral
    and boundary_integral take their sampled path, the oracle of the
    exact one."""
    from torsion_bound import hh_verifier as hh

    class Sampled(hh.SubharmonicFn):
        kind = fn.kind
        value = staticmethod(fn.value)
        laplacian = staticmethod(fn.laplacian)
        to_json = staticmethod(fn.to_json)

    return Sampled()


def poly_eval_pow(terms: dict, X: np.ndarray) -> np.ndarray:
    """The library's earlier polynomial kernel, verbatim: every term raises
    the whole point array to its power vector with numpy's float ``pow``."""
    out = np.zeros(len(X))
    for powers, coeff in terms.items():
        out += coeff * np.prod(X ** np.asarray(powers), axis=1)
    return out


def poly_eval_exact(terms: dict, X: np.ndarray) -> list[tuple[Fraction,
                                                              Fraction]]:
    """Per row of X, the exact rational value of the polynomial at the
    float inputs and sum |coeff * monomial| (the scale of its rounding
    error), both as Fractions."""
    rows = []
    for row in X:
        xs = [Fraction(float(v)) for v in row]
        value = scale = Fraction(0)
        for powers, coeff in terms.items():
            mono = Fraction(float(coeff))
            for x, p in zip(xs, powers):
                mono *= x ** p
            value += mono
            scale += abs(mono)
        rows.append((value, scale))
    return rows


def _poly_affine_sub(terms: dict, center: np.ndarray, scale) -> dict:
    """Rewrite a polynomial in x as one in y, where x = center + scale * y
    (scale a number or one per axis)."""
    scale = np.broadcast_to(np.asarray(scale, dtype=float), np.shape(center))
    out: dict = defaultdict(float)
    for powers, coeff in terms.items():
        partial = {(): coeff}
        for i, p in enumerate(powers):
            grown: dict = defaultdict(float)
            for mono, cf in partial.items():
                for k in range(p + 1):
                    grown[mono + (k,)] += (cf * math.comb(p, k)
                                           * scale[i] ** k * center[i] ** (p - k))
            partial = grown
        for mono, cf in partial.items():
            out[mono] += cf
    return dict(out)


def _unit_ball_monomial(n: int, powers) -> float:
    """Integral of prod x_i^{p_i} over the unit ball; zero for odd powers."""
    if any(p % 2 for p in powers):
        return 0.0
    total = sum(powers)
    log_val = (sum(gammaln((p + 1) / 2.0) for p in powers)
               - gammaln((n + total) / 2.0 + 1.0))
    return math.exp(log_val)


def exact_volume_integral(body, fn) -> float:
    """Closed-form integral of a polynomial test function over a ball,
    ellipsoid (the axis scaling of the unit ball) or box (radial/tensor
    quadrature); the independent cross-check used by the tests."""
    from torsion_bound import convex_geometry as cg

    n = body.dimension
    terms = as_polynomial(fn, n)
    if terms is None:
        raise ValueError("exact integration requires a polynomial kind")
    if isinstance(body, (cg.Ball, cg.Ellipsoid)):
        scale = (np.full(n, body.radius) if isinstance(body, cg.Ball)
                 else body.semi_axes)
        shifted = _poly_affine_sub(terms, body.center, scale)
        return float(np.prod(scale)) * sum(
            c * _unit_ball_monomial(n, p) for p, c in shifted.items())
    if isinstance(body, cg.Box):
        total = 0.0
        for powers, coeff in terms.items():
            piece = coeff
            for i, p in enumerate(powers):
                piece *= ((body.upper[i] ** (p + 1) - body.lower[i] ** (p + 1))
                          / (p + 1))
            total += piece
        return total
    raise ValueError("exact integration supports balls, ellipsoids and "
                     "boxes only")


def sphere_monomial(n: int, powers) -> float:
    """Integral of prod x_i^{p_i} over the unit sphere S^(n-1): (n + |p|)
    times the ball's, as r^(n-1+|p|) integrates to 1/(n + |p|)."""
    return (n + sum(powers)) * _unit_ball_monomial(n, powers)


def exact_boundary_integral(body, fn) -> float:
    """Closed-form integral of a polynomial test function over the sphere
    of a ball (sphere moments) or the faces of a box (1/(p+1) per axis)."""
    from torsion_bound import convex_geometry as cg

    n = body.dimension
    terms = as_polynomial(fn, n)
    if isinstance(body, cg.Ball):
        shifted = _poly_affine_sub(terms, body.center, body.radius)
        return body.radius ** (n - 1) * sum(
            c * sphere_monomial(n, p) for p, c in shifted.items())
    total = 0.0
    for powers, coeff in terms.items():
        for k in range(n):
            # the faces x_k = lower_k and x_k = upper_k
            piece = coeff * (body.lower[k] ** powers[k]
                             + body.upper[k] ** powers[k])
            for i, p in enumerate(powers):
                if i != k:
                    piece *= ((body.upper[i] ** (p + 1)
                               - body.lower[i] ** (p + 1)) / (p + 1))
            total += piece
    return total


def simplex_monomial(powers) -> Fraction:
    """Integral of prod x_i^{p_i} over the unit simplex {x >= 0,
    sum x <= 1} in n = len(powers) dimensions: prod p_i! / (n + |p|)!
    (the Dirichlet integral)."""
    num = math.prod(math.factorial(p) for p in powers)
    return Fraction(num, math.factorial(len(powers) + sum(powers)))


def simplex_boundary_monomial(powers) -> float:
    """The same over the unit simplex's boundary.  The facet x_i = 0 is
    the unit simplex of the other coordinates, where the monomial vanishes
    unless p_i = 0; the facet sum x = 1 is the image of the unit
    (n-1)-simplex under x_n = 1 - x_1 - ... - x_(n-1), with area element
    sqrt(n), so it adds sqrt(n) prod p_i! / (n - 1 + |p|)!."""
    powers = tuple(powers)
    n = len(powers)
    total = sum(simplex_monomial(powers[:i] + powers[i + 1:])
                for i in range(n) if powers[i] == 0)
    slant = Fraction(math.prod(math.factorial(p) for p in powers),
                     math.factorial(n - 1 + sum(powers)))
    return float(total) + math.sqrt(n) * float(slant)


def simplex_integrals(fn, n: int) -> tuple[float, float]:
    """(solid, boundary) integrals of a polynomial test function over the
    unit simplex in n dimensions (``presets.simplex(n)``)."""
    terms = as_polynomial(fn, n)
    return (sum(c * float(simplex_monomial(p)) for p, c in terms.items()),
            sum(c * simplex_boundary_monomial(p) for p, c in terms.items()))


def ellipsoid_distance_mp(body, x, dps: int = 50) -> float:
    """Distance from an interior point x (as stored, a float vector) to the
    ellipsoid boundary in ``dps``-digit arithmetic.

    The nearest-point parameter t solves f(t) = sum (b_i y_i / (b_i^2 +
    t))^2 - 1 = 0 on (-b_min^2, 0].  f falls and is convex there, so Newton
    steps from a start with f >= 0 rise monotonically to the root; the
    start t0 = b_min |y_S| - b_min^2 (y_S: the components along the
    shortest axes) has f(t0) >= 0.  The result carries no bracket-width
    error, so it resolves distances near 1e-9.
    """
    import mpmath

    with mpmath.workdps(dps):
        b = [mpmath.mpf(float(v)) for v in body.semi_axes]
        y = [mpmath.mpf(float(v)) - mpmath.mpf(float(c))
             for v, c in zip(x, body.center)]
        b_min = min(b)
        y_short = mpmath.sqrt(sum(yi**2 for yi, bi in zip(y, b)
                                  if bi == b_min))
        if y_short == 0:
            raise ValueError("no component along a shortest axis")
        t = b_min * y_short - b_min**2
        tol = mpmath.mpf(10) ** (5 - dps) * b_min**2
        for _ in range(1000):
            f = sum((bi * yi / (bi**2 + t)) ** 2 for yi, bi in zip(y, b)) - 1
            df = -2 * sum((bi * yi) ** 2 / (bi**2 + t) ** 3
                          for yi, bi in zip(y, b))
            step = -f / df
            t += step
            if step <= tol:
                break
        else:
            raise RuntimeError("Newton iteration did not converge")
        return float(mpmath.sqrt(sum((yi * t / (bi**2 + t)) ** 2
                                     for yi, bi in zip(y, b))))


# The keyed draws and the walk block as the library wrote them before a
# walk keyed its streams once: the unit keys re-derived on every call and
# one splitmix pass per slot.  The walk tests and the draw tests hold the
# library to these bit for bit.

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_STEP_MULT = 0xD1342543DE82EF95
MAX_SLOTS = 64


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a uint64 array."""
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _unit_keys(key: int, units: np.ndarray) -> np.ndarray:
    from torsion_bound import rng

    u = np.ascontiguousarray(units, dtype=np.uint64)
    return _mix_array((u + np.uint64(rng.derive(key))) * np.uint64(_GOLDEN))


def uniforms_per_slot(key: int, units: np.ndarray, counter: int,
                      nslots: int) -> np.ndarray:
    """Reference for rng.uniforms: one splitmix pass per slot."""
    if nslots > MAX_SLOTS:
        raise ValueError(f"nslots {nslots} exceeds MAX_SLOTS {MAX_SLOTS}")
    base = _unit_keys(key, units)
    out = np.empty((base.size, nslots))
    for j in range(nslots):
        word = ((int(counter) * MAX_SLOTS + j) * _STEP_MULT) & _MASK
        v = _mix_array(base + np.uint64(word))
        # 53-bit mantissa, offset keeps draws strictly inside (0, 1)
        out[:, j] = (v >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return out


def unit_vectors_per_slot(key: int, units: np.ndarray, counter: int,
                          dim: int) -> np.ndarray:
    """Reference for rng.unit_vectors on uniforms_per_slot."""
    from scipy.special import ndtri

    if dim == 2:
        theta = 2.0 * np.pi * uniforms_per_slot(key, units, counter, 1)[:, 0]
        return np.column_stack((np.cos(theta), np.sin(theta)))
    if dim == 3:
        u = uniforms_per_slot(key, units, counter, 2)
        z = 2.0 * u[:, 0] - 1.0
        phi = 2.0 * np.pi * u[:, 1]
        s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))
    g = ndtri(uniforms_per_slot(key, units, counter, dim))
    norm = np.linalg.norm(g, axis=1)
    norm[norm < 1e-300] = 1.0
    return g / norm[:, None]


def unit_ball_points_two_keys(key: int, ids: np.ndarray,
                              n: int) -> np.ndarray:
    """Reference for convex_geometry._unit_ball_points: its earlier form,
    which keys the ids once for the radius and once for the direction,
    on the per-slot references (in n = 1 a normalized ndtri Gaussian)."""
    radius = uniforms_per_slot(key, ids, 1, 1)[:, 0] ** (1.0 / n)
    return unit_vectors_per_slot(key, ids, 0, n) * radius[:, None]


def _torsion_block_per_step(body, x, cfg, key, lo, hi, values) -> int:
    from torsion_bound import wos_engine as wos

    n = body.dimension
    ids = np.arange(lo, hi, dtype=np.uint64)
    pos = np.tile(x, (hi - lo, 1))
    acc = np.zeros(hi - lo)
    shell = cfg.shell_width * body.diameter
    inv2n = 1.0 / (2.0 * n)
    for step in range(wos._MAX_STEPS):
        d = body.distances_many(pos)
        alive = d > shell
        if not alive.all():
            dead = ~alive
            values[ids[dead]] = acc[dead]
            ids, pos, acc, d = ids[alive], pos[alive], acc[alive], d[alive]
            if ids.size == 0:
                return 0
        acc += d * d * inv2n
        pos += d[:, None] * unit_vectors_per_slot(key, ids, step, n)
    values[ids] = acc + wos._tail_bound(body)
    return ids.size


def torsion_value_per_step(body, x, cfg):
    """Reference for wos_engine.torsion_value: every step re-keys its walks
    and draws its directions from unit_vectors_per_slot."""
    from torsion_bound import rng
    from torsion_bound import wos_engine as wos
    from torsion_bound.estimates import Estimate

    x = np.asarray(x, dtype=float)
    key = rng.derive(cfg.seed, wos._TAG_TORSION)
    values = np.empty(cfg.samples)
    truncated = sum(
        _torsion_block_per_step(body, x, cfg, key, lo,
                                min(lo + wos._BLOCK, cfg.samples), values)
        for lo in range(0, cfg.samples, wos._BLOCK))
    return Estimate.from_values(values, truncated=truncated)


def distances_rows(body, points: np.ndarray) -> np.ndarray:
    """Reference for distances_many: boxes and polytopes reduced along
    rows, as the library did before it reduced along the long axis;
    intersections recurse, other bodies are the library's own."""
    from torsion_bound import convex_geometry as cg

    if isinstance(body, cg.Box):
        return np.minimum(points - body.lower, body.upper - points).min(axis=1)
    if isinstance(body, cg.Polytope):
        if len(points) == 1:
            return distances_rows(body, np.vstack((points, points)))[:1]
        return (body.c - points @ body.A.T).min(axis=1)
    if isinstance(body, cg.Intersection):
        return np.min([distances_rows(m, points) for m in body.members],
                      axis=0)
    return body.distances_many(points)


def contains_rows(body, points: np.ndarray) -> np.ndarray:
    """Reference for contains_many, row by row as distances_rows, by the
    defining inequalities: |x - c|^2 <= R^2 for balls and
    sum ((x - c)/b)^2 <= 1 for ellipsoids.  Near a sphere or an ellipsoid
    these may round apart from the sign of the distance."""
    from torsion_bound import convex_geometry as cg

    if isinstance(body, cg.Box):
        return np.all((points >= body.lower) & (points <= body.upper), axis=1)
    if isinstance(body, cg.Polytope):
        return np.all(points @ body.A.T <= body.c, axis=1)
    if isinstance(body, cg.Intersection):
        return np.all([contains_rows(m, points) for m in body.members],
                      axis=0)
    if isinstance(body, cg.Ball):
        d = points - body.center
        return np.einsum("ij,ij->i", d, d) <= body.radius * body.radius
    if isinstance(body, cg.Ellipsoid):
        z = (points - body.center) / body.semi_axes
        return np.einsum("ij,ij->i", z, z) <= 1.0
    raise TypeError(f"no membership formula for {type(body).__name__}")


# ---------------------------------------------------------------------------
# Polytope face tables by linear programs, as the library built them before
# it enumerated vertices: every face volume by the recursive divergence
# identity about a Chebyshev centre, every chart box by 2(d-1) LPs.


def _hrep_volume(A: np.ndarray, c: np.ndarray, scale: float) -> float:
    """Exact volume of a bounded {A x <= c} by the recursive divergence
    identity vol = (1/d) sum_i (c_i - a_i . x0) |face_i|."""
    from torsion_bound import convex_geometry as cg

    d = A.shape[1]
    if d == 1:
        lo, hi = -math.inf, math.inf
        for a, ci in zip(A[:, 0], c):
            if a > cg._TOL:
                hi = min(hi, ci / a)
            elif a < -cg._TOL:
                lo = max(lo, ci / a)
            elif ci < -1e-9 * scale:
                return 0.0
        return max(0.0, hi - lo)
    center, radius = cg._chebyshev_center(A, c)
    if center is None or radius <= 1e-12 * scale:
        return 0.0
    total = 0.0
    for i in range(len(c)):
        fv = _hrep_face_volume(A, c, i, scale)
        if fv > 0.0:
            total += (c[i] - A[i] @ center) * fv
    return total / d


def _hrep_face_volume(A, c, i, scale) -> float:
    from torsion_bound import convex_geometry as cg

    sub = cg._face_subsystem(A, c, i)
    if sub is None:
        return 0.0
    _, _, A2, c2, _ = sub
    if len(c2) == 0:
        return 0.0
    return _hrep_volume(A2, c2, scale)


def lp_face_table(poly) -> list[tuple[int, float]]:
    """(index, area) of every face that ``poly.faces`` should list, by
    linear programs."""
    from torsion_bound import convex_geometry as cg

    lo, hi = poly.bounding_box()
    scale = max(1.0, float(np.linalg.norm(hi - lo)))
    out = []
    for i in range(len(poly.c)):
        sub = cg._face_subsystem(poly.A, poly.c, i)
        if sub is None:
            continue
        _, _, A2, c2, _ = sub
        area = _hrep_volume(A2, c2, scale) if len(c2) else 0.0
        if area <= 1e-12 * scale ** (poly.dimension - 1):
            continue
        out.append((i, area))
    return out


# ---------------------------------------------------------------------------
# Uniform laws on simplices and polytopes: closed-form moments, summed over
# a qhull triangulation for polytopes (the samplers use a cone
# decomposition of the face lattice instead).


def simplex_moments(V: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(measure, mean, second moment E[x x^T]) of the uniform law on the
    simplex with vertices V (d + 1 rows in R^n, d <= n).  The measure is
    the Gram determinant sqrt(det(E E^T)) / d! of the edges E, and
    E[x x^T] = (sum v v^T + (sum v)(sum v)^T) / ((d + 1)(d + 2))."""
    V = np.asarray(V, dtype=float)
    d = len(V) - 1
    E = V[1:] - V[0]
    measure = math.sqrt(abs(np.linalg.det(E @ E.T))) / math.factorial(d)
    total = V.sum(axis=0)
    second = (V.T @ V + np.outer(total, total)) / ((d + 1) * (d + 2))
    return measure, V.mean(axis=0), second


def polytope_moments(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, second moment) of the uniform law on the convex hull of
    ``vertices`` (full-dimensional), summed over the cones from the vertex
    mean to qhull's boundary simplices.  (A Delaunay triangulation of
    random-polytope-n3's vertices overlaps: its volumes sum to 3.2e-9
    relative above the hull's.)"""
    from scipy.spatial import ConvexHull

    apex = vertices.mean(axis=0)
    mass, first, second = 0.0, 0.0, 0.0
    for facet in ConvexHull(vertices).simplices:
        vol, mean, sec = simplex_moments(np.vstack((apex, vertices[facet])))
        mass += vol
        first = first + vol * mean
        second = second + vol * sec
    return first / mass, second / mass


def hull_boundary_moments(vertices: np.ndarray):
    """(area, mean, second moment) of the uniform law on the boundary of
    the convex hull of ``vertices`` in R^3, from qhull's triangles."""
    from scipy.spatial import ConvexHull

    mass, first, second = 0.0, 0.0, 0.0
    for tri in ConvexHull(vertices).simplices:
        area, mean, sec = simplex_moments(vertices[tri])
        mass += area
        first = first + area * mean
        second = second + area * sec
    return mass, first / mass, second / mass


def moment_errors(points: np.ndarray, mean: np.ndarray, second: np.ndarray,
                  atol: float = 1e-12) -> np.ndarray:
    """|sample moment - exact| / (standard error + atol) of every
    coordinate mean and every product moment E[x_i x_j], i <= j.  The
    atol lets a coordinate that is constant on a face (zero variance)
    carry its rounding."""
    n = points.shape[1]
    cols = [points[:, i] for i in range(n)]
    exact = list(mean)
    for i in range(n):
        for j in range(i, n):
            cols.append(points[:, i] * points[:, j])
            exact.append(second[i, j])
    vals = np.column_stack(cols)
    se = vals.std(axis=0, ddof=1) / math.sqrt(len(vals))
    return np.abs(vals.mean(axis=0) - np.array(exact)) / (se + atol)


def half_ball_measures_mp(n: int, radius: float, t: float,
                          dps: int = 30) -> tuple[float, float, float]:
    """(volume, surface area, boundary height moment) of a ball of radius
    R cut by a plane at signed height h = tR from its centre, keeping
    {s <= h}, by mpmath quadrature over the slices s in [-R, h]: a slice
    is an (n-1)-ball of radius rho = sqrt(R^2 - s^2), and the sphere meets
    it in an (n-2)-sphere whose band has width R / rho ds.  The moment is
    the integral of s / R over the boundary."""
    import mpmath as mp

    with mp.workdps(dps):
        R, h = mp.mpf(radius), mp.mpf(t) * radius
        omega = mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        sigma = (n - 1) * omega  # area of the unit sphere in R^(n-1)
        vol = mp.quad(lambda s: omega * (R * R - s * s) ** (mp.mpf(n - 1) / 2),
                      [-R, h])

        def band(s):
            return sigma * R * (R * R - s * s) ** (mp.mpf(n - 3) / 2)

        flat = omega * (R * R - h * h) ** (mp.mpf(n - 1) / 2)
        area = mp.quad(band, [-R, h]) + flat
        height = mp.quad(lambda s: s / R * band(s), [-R, h]) + h / R * flat
        return float(vol), float(area), float(height)


def ellipsoid_area_mp(semi_axes, dps: int = 30) -> float:
    """Surface area of the ellipsoid with these semi-axes,
    (prod b_i) pi^((n-1)/2) / (sqrt 2 Gamma((n+1)/2)) times
    int_0^inf (1 - prod_i (1 + 2 s / b_i^2)^(-1/2)) s^(-3/2) ds, by mpmath
    quadrature in s split at the axis scales b_i^2 / 2."""
    import mpmath as mp

    with mp.workdps(dps):
        b = [mp.mpf(float(x)) for x in semi_axes]
        n = len(b)

        def f(s):
            return ((1 - mp.fprod((1 + 2 * s / (bi * bi)) ** mp.mpf(-0.5)
                                  for bi in b)) * s ** mp.mpf(-1.5))

        cuts = sorted({bi * bi / 2 for bi in b})
        integral = mp.quad(f, [0, *cuts, mp.inf])
        return float(mp.fprod(b) * mp.pi ** (mp.mpf(n - 1) / 2) * integral
                     / (mp.sqrt(2) * mp.gamma(mp.mpf(n + 1) / 2)))


def simplex_product_rule(vertices: np.ndarray, points: int):
    """(nodes, weights) of the conical product rule on the simplex with
    these d + 1 vertices (rows, in R^n): Gauss-Legendre with ``points``
    nodes in each collapsed coordinate u of lambda_1 = u_1,
    lambda_k = u_k prod_(j<k) (1 - u_j), weighted by that map's Jacobian
    prod_j (1 - u_j)^(d - j) times d! |S|, with |S| from the Gram
    determinant.  Exact for polynomials of degree <= 2 points - d, and
    free of the sign cancellation of a high-degree Grundmann-Moeller
    rule."""
    V = np.asarray(vertices, dtype=float)
    d = len(V) - 1
    x, w = np.polynomial.legendre.leggauss(points)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    U = np.stack([g.ravel() for g in np.meshgrid(*[x] * d, indexing="ij")],
                 axis=1)
    W = np.prod(np.meshgrid(*[w] * d, indexing="ij"), axis=0).ravel()
    lam = np.empty((len(U), d + 1))
    rest = np.ones(len(U))
    for j in range(d):
        lam[:, j + 1] = rest * U[:, j]
        W = W * (1.0 - U[:, j]) ** (d - 1 - j)
        rest = rest * (1.0 - U[:, j])
    lam[:, 0] = rest
    E = V[1:] - V[0]
    measure = math.sqrt(abs(np.linalg.det(E @ E.T))) / math.factorial(d)
    return lam @ V, W * measure * math.factorial(d)
