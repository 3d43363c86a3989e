"""Closed-form quantities: unit-ball constants, ball and ellipsoid torsion
functions, the lifetime-bound assembly with its minimizing horizon, the
gradient-bound constants, the ball's lower bound on the optimal constant,
and the ellipsoid and half-disk examples.  The half-disk pair f = 1 - y
shows only c_2 >= 0.2296, weaker than the disk's 1/(2 sqrt(pi)) from
cn_lower_bound(2).

Everything here is exact arithmetic on doubles (log-gamma for the
high-dimensional constants); Monte Carlo lives elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import gammaln

from .estimates import Estimate

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2PIE = math.sqrt(2.0 * math.pi * math.e)
GRADIENT_CONSTANT = math.sqrt(2.0) / math.pi  # the dimension-free bound constant


def _check_dimension(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return n


def log_omega(n: int) -> float:
    """log of the unit-ball volume, stable for large n."""
    n = _check_dimension(n)
    return 0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0)


def omega(n: int) -> float:
    """Volume of the n-dimensional unit ball, pi^{n/2} / Gamma(n/2 + 1).

    Underflows to 0 around n ~ 1500; use log_omega for asymptotics.
    """
    return math.exp(log_omega(n))


def normalized_constant(n: int) -> float:
    """omega_n^{1/n} * sqrt(n); lies in [sqrt(2 pi), sqrt(2 pi e)] for n >= 2."""
    n = _check_dimension(n)
    return math.exp(log_omega(n) / n + 0.5 * math.log(n))


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}, equal to n * omega_n."""
    return n * omega(n)


def ball_volume(n: int, radius: float) -> float:
    return omega(n) * radius ** n


def ball_surface_area(n: int, radius: float) -> float:
    return unit_sphere_area(n) * radius ** (n - 1)


def ball_torsion(n: int, radius: float, r: float) -> float:
    """Torsion function of the ball at distance r from the center:
    (R^2 - r^2) / (2n), the radial solution of -lap u = 1, u = 0 on |x| = R."""
    _check_dimension(n)
    return (radius * radius - r * r) / (2.0 * n)


def ball_max_gradient(n: int, radius: float) -> float:
    """Max inward normal derivative of the ball torsion function: R / n."""
    _check_dimension(n)
    return radius / n


@dataclass(frozen=True)
class BoundReport:
    """One row of a verification table.

    margin = bound_value - measured.mean; the check passes when the margin
    is no worse than -4 combined standard errors (measured plus any Monte
    Carlo uncertainty in the bound itself, carried in bound_stderr).
    """

    quantity_name: str
    measured: Estimate
    bound_value: float
    margin: float
    passed: bool
    provenance: str
    bound_stderr: float = 0.0
    details: dict = field(default_factory=dict)


def make_report(quantity_name: str, measured: Estimate, bound_value: float,
                provenance: str, bound_stderr: float = 0.0,
                details: dict | None = None) -> BoundReport:
    margin = bound_value - measured.mean
    tol = 4.0 * math.hypot(measured.stderr, bound_stderr)
    return BoundReport(quantity_name=quantity_name, measured=measured,
                       bound_value=bound_value, margin=margin,
                       passed=margin >= -tol, provenance=provenance,
                       bound_stderr=bound_stderr, details=details or {})


# ---------------------------------------------------------------------------
# Lifetime-bound assembly (exit time of standard Brownian motion, i.e. the
# -lap u = 2 normalization).


def lifetime_bound(n: int, vol: float) -> float:
    """Uniform bound on the expected Brownian exit time from a body of
    volume vol: (1/n) (vol / omega_n)^{2/n}.  Sharp for the centered ball."""
    n = _check_dimension(n)
    return math.exp((2.0 / n) * (math.log(vol) - log_omega(n))) / n


def assembled_lifetime_bound(epsilon: float, n: int, vol: float, T: float) -> float:
    """Exit-time bound for a start point at distance epsilon from the
    boundary, split at horizon T:
    eps sqrt(2/pi) (2 sqrt(T) + (1/sqrt(T)) (1/n)(vol/omega_n)^{2/n})."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    a = lifetime_bound(n, vol)
    return epsilon * math.sqrt(2.0 / math.pi) * (2.0 * math.sqrt(T) + a / math.sqrt(T))


def optimal_T(n: int, vol: float) -> float:
    """Horizon minimizing assembled_lifetime_bound: (1/(2n))(vol/omega_n)^{2/n}."""
    return 0.5 * lifetime_bound(n, vol)


def minimized_bound(epsilon: float, n: int, vol: float) -> float:
    """assembled_lifetime_bound at the optimal horizon:
    eps (4/sqrt(pi)) (1/sqrt(n)) (vol/omega_n)^{1/n}."""
    n = _check_dimension(n)
    root = math.exp((math.log(vol) - log_omega(n)) / n)
    return epsilon * (4.0 / math.sqrt(math.pi)) * root / math.sqrt(n)


def theorem2_raw_bound(n: int, vol: float) -> float:
    """Gradient bound before simplification, for -lap u = 1:
    (2/sqrt(pi)) (1/sqrt(n)) (vol/omega_n)^{1/n} (half the exit-time constant)."""
    return 0.5 * minimized_bound(1.0, n, vol)

def theorem2_bound(n: int, vol: float) -> float:
    """The dimension-free gradient bound (sqrt(2)/pi) vol^{1/n}."""
    _check_dimension(n)
    return GRADIENT_CONSTANT * vol ** (1.0 / n)


def cn_lower_bound(n: int) -> float:
    """Lower bound on the optimal constant in max du/dnu <= c_n vol^{1/n},
    from the ball example: 1 / (n omega_n^{1/n}).

    Always >= 1/(sqrt(2 pi e) sqrt(n)); the cruder floor (1/2)/sqrt(n)
    would require sqrt(n) omega_n^{1/n} <= 2, which fails for every n >= 2.

    The same value also lower-bounds the Hermite-Hadamard constant in
    int_Omega f <= c |Omega|^{1/n} int_dOmega f: on a ball of radius R,
    du/dnu = R/n is constant, so int_B f = (R/n) int_dB f for every
    harmonic f and the ratio is exactly 1 / (n omega_n^{1/n}).
    """
    n = _check_dimension(n)
    return math.exp(-log_omega(n) / n) / n


# ---------------------------------------------------------------------------
# The ellipsoid and half-disk examples.


@dataclass(frozen=True)
class EllipsoidTorsion:
    """Closed forms for the tilted-ellipsoid example with semi-axes
    (2, sqrt(2n-2), ..., sqrt(2n-2)).

    The defining function g = 1 - x1^2/4 - sum x_i^2/(2n-2) has
    lap g = -3/2, so the actual torsion function is u = c g with c = 2/3,
    not g itself; stated_* fields record the uncorrected values (c = 1)
    for comparison.
    """

    n: int
    coefficient: float          # c = 2/3
    max_gradient: float         # max |grad u| over the boundary
    volume_root: float          # vol^{1/n}
    sharpness_ratio: float      # max_gradient / volume_root
    stated_coefficient: float = 1.0
    stated_max_gradient: float = 1.0


def ellipsoid_semi_axes(n: int) -> list[float]:
    n = _check_dimension(n)
    return [2.0] + [math.sqrt(2.0 * n - 2.0)] * (n - 1)


def ellipsoid_torsion(n: int) -> EllipsoidTorsion:
    """Solve -lap u = 1 on the example ellipsoid and maximize |grad u|
    over its boundary (the gradient is normal there).

    With u = c (1 - x1^2/4 - sum_{i>=2} x_i^2 / (2n-2)):
    lap u = -c (1/2 + 1) forces c = 2/3, and on the boundary
    |grad u|^2 = 4 c^2 (s/4 + (1-s)/(2n-2)) for s = x1^2/4 in [0, 1],
    linear in s, so the max sits at an axis tip.
    """
    n = _check_dimension(n)
    c = 2.0 / 3.0
    max_gradient = 2.0 * c * math.sqrt(max(0.25, 1.0 / (2.0 * n - 2.0)))
    log_vol = log_omega(n) + math.log(2.0) + 0.5 * (n - 1) * math.log(2.0 * n - 2.0)
    volume_root = math.exp(log_vol / n)
    return EllipsoidTorsion(n=n, coefficient=c, max_gradient=max_gradient,
                            volume_root=volume_root,
                            sharpness_ratio=max_gradient / volume_root)


@dataclass(frozen=True)
class HalfDiskExample:
    """Closed-form integrals for the half-disk with f(x, y) = 1 - y."""

    lhs: float          # integral of f over the half-disk
    rhs_surface: float  # integral of f over its boundary
    volume_root: float  # area^{1/2}
    ratio: float        # lhs / (volume_root * rhs_surface)


def half_disk_example() -> HalfDiskExample:
    """f = 1 - y on the upper unit half-disk: the solid integral is
    pi/2 - 2/3, the boundary integral is 2 + (pi - 2) = pi, and the
    achieved ratio ~ 0.2296 shows c_2 >= 0.2296.  That is weaker than the
    disk's 1/(2 sqrt(pi)) ~ 0.2821 from cn_lower_bound(2); the ratio lies
    in (0.22, sqrt(2)/pi).
    """
    lhs = math.pi / 2.0 - 2.0 / 3.0
    rhs = math.pi
    volume_root = math.sqrt(math.pi / 2.0)
    ratio = lhs / (volume_root * rhs)
    if not (0.22 < ratio < GRADIENT_CONSTANT):
        raise AssertionError("half-disk ratio fell outside (0.22, sqrt(2)/pi)")
    return HalfDiskExample(lhs=lhs, rhs_surface=rhs,
                           volume_root=volume_root, ratio=ratio)
