"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
library code it checks: rational approximations and frozen 50-digit
values for the normal CDF, Fourier series and five-point finite
differences for the square torsion problem, ray casting for distances,
and central differences for Laplacians.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

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


def phi_rational(x: float) -> float:
    """Zelen-Severo rational approximation 26.2.17 for the standard
    normal CDF, |error| < 7.5e-8; independent of any erf implementation."""
    if x < 0:
        return 1.0 - phi_rational(-x)
    p = 0.2316419
    b = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
    t = 1.0 / (1.0 + p * x)
    poly = sum(bk * t ** (k + 1) for k, bk in enumerate(b))
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1.0 - pdf * poly


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
