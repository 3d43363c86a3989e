"""Monte Carlo configuration and result containers shared by the samplers."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WosConfig:
    """Controls for walk-on-spheres and the other samplers.

    shell_width and fd_delta are fractions of the body diameter: the walk
    absorbs inside the shell, and normal derivatives probe fd_delta deep.
    samples is at least 2: a stderr needs two values, and a stderr of 0
    marks an exact value.
    """

    samples: int = 10_000
    seed: int = 0
    shell_width: float = 1e-4
    fd_delta: float = 1e-2

    def __post_init__(self):
        if not (0.0 < self.shell_width < 1.0):
            raise ValueError("shell_width must lie in (0, 1)")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if not (math.isfinite(self.fd_delta)
                and self.fd_delta > self.shell_width):
            raise ValueError("fd_delta must be finite and exceed shell_width")

    def replace(self, **changes) -> "WosConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Estimate:
    """A statistical result: mean, stderr = sample sd / sqrt(samples).

    stderr == 0 flags an exact (closed-form) value.  A quadrature value
    (an hh_verifier.Integral of method "quadrature") holds no sample sd:
    its stderr is the difference between the rules of degrees 8 and 6,
    an estimate of the degree-8 rule's error that over-reads it for the
    functions taken that way, and samples counts that rule's nodes.
    truncated_fraction counts walks that hit the step cap; it is carried,
    never dropped.
    """

    mean: float
    stderr: float
    samples: int
    truncated_fraction: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when more than 1% of walks were truncated."""
        return self.truncated_fraction > 0.01

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(mean=float(value), stderr=0.0, samples=0)

    @classmethod
    def from_values(cls, values: np.ndarray, truncated: int = 0) -> "Estimate":
        values = np.asarray(values, dtype=float)
        m = values.size
        if m == 0:
            raise ValueError("empty sample")
        mean = float(np.mean(values))
        stderr = 0.0 if m == 1 else float(np.std(values, ddof=1) / math.sqrt(m))
        return cls(mean=mean, stderr=stderr, samples=m,
                   truncated_fraction=truncated / m)

    def scaled(self, factor: float) -> "Estimate":
        return Estimate(mean=self.mean * factor,
                        stderr=self.stderr * abs(factor),
                        samples=self.samples,
                        truncated_fraction=self.truncated_fraction)


def product_estimate(a: Estimate, b: Estimate) -> Estimate:
    """Estimate of a*b for independent estimates (first-order error)."""
    mean = a.mean * b.mean
    var = (a.mean * b.stderr) ** 2 + (b.mean * a.stderr) ** 2
    return Estimate(mean=mean, stderr=math.sqrt(var),
                    samples=max(a.samples, b.samples),
                    truncated_fraction=max(a.truncated_fraction,
                                           b.truncated_fraction))
