"""First crossing of a level by 1-D standard Brownian motion.

The law of T = inf{t > 0 : B(t) = eps} has the reflection-principle CDF
2 - 2 Phi(eps / sqrt(t)); this module exposes that closed form, its
density, the truncated first moment with the sqrt(T) bound used by the
exit-time argument, and a bridge-corrected Euler simulation for
validating everything empirically.

Note on naming: truncated_mean computes the plain truncated integral
int_0^T t psi(t) dt (the quantity the exit-time proof consumes), not the
conditional expectation E(T | T <= T0), which would divide by P(T <= T0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, erfc, ndtr

from . import rng
from .analytic_library import SQRT_2PI


@dataclass(frozen=True)
class HittingTimeLaw:
    """Law of the first time standard Brownian motion reaches +epsilon."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _check_positive(t, name: str):
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    return arr


def normal_cdf(x):
    """Standard normal CDF via the complementary error function,
    accurate to better than 1e-14 absolute over the real line."""
    return ndtr(x)


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

    @property
    def hit_fraction(self) -> float:
        return len(self.times) / self.count


def simulate_hitting_times(law: HittingTimeLaw, count: int, dt: float,
                           horizon: float, seed: int) -> HittingTimeSample:
    """Euler paths with a Brownian-bridge crossing test per step.

    Between consecutive positions below the level with gaps a, b > 0 the
    bridge crosses with probability exp(-2 a b / dt); without this
    correction the discrete walk undercounts crossings at O(sqrt(dt)).
    Paths are keyed by (seed, path index) and independent of batching.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dt > law.epsilon**2 / 100.0:
        raise ValueError("dt must be at most epsilon^2 / 100")
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
    return HittingTimeSample(times=np.array(times), censored=censored,
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
