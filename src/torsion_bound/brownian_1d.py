"""First crossing of a level by 1-D standard Brownian motion.

The law of T = inf{t > 0 : B(t) = eps} has the reflection-principle CDF
2 - 2 Phi(eps / sqrt(t)); this module exposes that closed form, its
density, the truncated first moment with the sqrt(T) bound used by the
exit-time argument, and a bridge-corrected Euler simulation for
validating everything empirically.  The simulation runs its paths in
blocks of at most _BLOCK_STEPS path-steps, one numpy pass per block;
each path is keyed by (seed, path index), so the result does not depend
on the block size.

Note on naming: truncated_mean computes the plain truncated integral
int_0^T t psi(t) dt (the quantity the exit-time proof consumes), not the
conditional expectation E(T | T <= T0), which would divide by P(T <= T0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, erfc

from . import rng
from .analytic_library import SQRT_2PI

# Path-steps simulated per block (64 paths of 1000 steps); bounds the
# block's arrays at about 0.5 MB each.
_BLOCK_STEPS = 65_536
# Floor of the bridge exponents: exp(-40) < 2^-53, the least positive
# uniform a path draws.
_EXP_FLOOR = -40.0


@dataclass(frozen=True)
class HittingTimeLaw:
    """Law of the first time standard Brownian motion reaches +epsilon."""

    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")


def _check_positive(t, name: str):
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    return arr


def cdf(law: HittingTimeLaw, t):
    """P(T <= t) = 2 - 2 Phi(eps / sqrt(t)), evaluated as
    erfc(eps / sqrt(2 t)) to avoid cancellation for small t."""
    t = _check_positive(t, "t")
    return erfc(law.epsilon / np.sqrt(2.0 * t))


def density(law: HittingTimeLaw, t):
    """psi(t) = eps / (sqrt(2 pi) t^{3/2}) exp(-eps^2 / (2t));
    peaks at t = eps^2 / 3."""
    t = _check_positive(t, "t")
    return (law.epsilon / (SQRT_2PI * t**1.5)) * np.exp(-law.epsilon**2 / (2.0 * t))


def survival_probability(law: HittingTimeLaw, T):
    """P(T > T0) = 2 Phi(eps / sqrt(T0)) - 1 = erf(eps / sqrt(2 T0))."""
    T = _check_positive(T, "T")
    return erf(law.epsilon / np.sqrt(2.0 * T))


def phi_linear_bound(x):
    """The linearization Phi(x) <= 1/2 + x / sqrt(2 pi), tight at 0+."""
    x = _check_positive(x, "x")
    return 0.5 + x / SQRT_2PI


def truncated_mean(law: HittingTimeLaw, T: float) -> float:
    """int_0^T t psi(t) dt by adaptive quadrature.

    Substituting s = eps / sqrt(t) removes the t^{-3/2} endpoint and turns
    the integrand into 2 eps^2 e^{-s^2/2} / (sqrt(2 pi) s^2) on
    [eps/sqrt(T), inf).  quad is asked for 1e-10 absolute but misses it
    on narrow bands of eps/sqrt(T): by up to 3.6e-6 near 0.644 and 1.1e-9
    near 0.148, against the closed form
    eps sqrt(2T/pi) e^{-eps^2/(2T)} - eps^2 erfc(eps / sqrt(2T))."""
    if T <= 0:
        raise ValueError("T must be positive")
    eps = law.epsilon
    a = eps / math.sqrt(T)

    def integrand(s):
        return 2.0 * eps * eps * math.exp(-0.5 * s * s) / (SQRT_2PI * s * s)

    value, _err = quad(integrand, a, math.inf, epsabs=1e-10, limit=200)
    return value


def truncated_mean_bound(law: HittingTimeLaw, T: float) -> float:
    """The closed bound eps sqrt(2/pi) sqrt(T) dominating truncated_mean."""
    if T <= 0:
        raise ValueError("T must be positive")
    return law.epsilon * math.sqrt(2.0 / math.pi) * math.sqrt(T)


def survival_linear_bound(law: HittingTimeLaw, T: float) -> float:
    """sqrt(2/pi) eps / sqrt(T), the survival bound obtained by feeding
    phi_linear_bound into survival_probability."""
    if T <= 0:
        raise ValueError("T must be positive")
    return math.sqrt(2.0 / math.pi) * law.epsilon / math.sqrt(T)


@dataclass(frozen=True)
class HittingTimeSample:
    """Simulated crossing times up to a horizon, plus the censored count."""

    times: np.ndarray
    censored: int
    count: int
    dt: float
    horizon: float


def simulate_hitting_times(law: HittingTimeLaw, count: int, dt: float,
                           horizon: float, seed: int) -> HittingTimeSample:
    """Euler paths with a Brownian-bridge crossing test per step.

    Between consecutive positions below the level with gaps a, b > 0 the
    bridge crosses with probability exp(-2 a b / dt); without this
    correction the discrete walk undercounts crossings at O(sqrt(dt)).
    Clipping both gaps at 0 makes that probability 1 at the first step
    on or above the level.  Paths run in blocks of at most _BLOCK_STEPS
    path-steps, one row per path; each path draws its normals and then
    its uniforms from the stream keyed by (seed, path index), so the
    result does not depend on the block size.
    """
    if not (math.isfinite(dt) and math.isfinite(horizon)):
        raise ValueError("dt and horizon must be finite")
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    if not isinstance(count, numbers.Integral):
        raise ValueError("count must be an integer")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dt > law.epsilon**2 / 100.0:
        raise ValueError("dt must be at most epsilon^2 / 100")
    eps = law.epsilon
    nsteps = int(round(horizon / dt))
    if nsteps < 1:
        raise ValueError("horizon must span at least one step of dt")
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
        # A path's uniforms are multiples of 2^-53, so a lane whose exp is
        # below 2^-53 fires only where u == 0.  Flooring the exponents at
        # _EXP_FLOOR keeps exp in numpy's fast range (below about -708 it
        # costs 20 to 60 times as much; about half the lanes of a typical
        # simulation lie there); the u == 0 lanes are then evaluated from
        # their unfloored exponents.
        np.maximum(p, _EXP_FLOOR, out=p)
        np.exp(p, out=p)
        fire = u < p
        zero = np.flatnonzero(u == 0.0)
        if zero.size:
            r, s = np.divmod(zero, nsteps)
            a = np.where(s > 0, gap[r, s - 1], eps)
            fire[r, s] = np.exp(a * -2.0 * gap[r, s] / dt) > 0.0
        k = np.argmax(fire, axis=1)
        hit = fire[np.arange(m), k]
        times.append((k[hit] + 1) * dt)
        censored += m - int(np.count_nonzero(hit))
    return HittingTimeSample(times=np.concatenate(times), censored=censored,
                             count=count, dt=dt, horizon=horizon)


def ks_distance(times: np.ndarray, cdf_fn) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    t = np.sort(np.asarray(times, dtype=float))
    m = t.size
    if m == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf_fn(t), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(np.abs(grid - f)), np.max(np.abs(grid - 1.0 / m - f))))


def conditional_cdf(law: HittingTimeLaw, horizon: float):
    """CDF of the crossing time conditioned on crossing before the horizon."""
    total = float(cdf(law, horizon))

    def fn(t):
        return cdf(law, t) / total

    return fn
