"""Numerical verification of a dimension-free solid-vs-boundary mean
inequality for subharmonic functions on convex bodies, built on an exact
walk-on-spheres recursion for the torsion problem -lap u = 1."""

from .analytic_library import (BoundReport, EllipsoidTorsion, HalfDiskExample,
                               assembled_lifetime_bound, ball_max_gradient,
                               ball_torsion, cn_lower_bound, ellipsoid_torsion,
                               half_disk_example, lifetime_bound,
                               minimized_bound, normalized_constant, omega,
                               optimal_T, theorem2_bound, theorem2_raw_bound)
from .brownian_1d import (HittingTimeLaw, HittingTimeSample, cdf, density,
                          phi_linear_bound, simulate_hitting_times,
                          survival_probability, truncated_mean,
                          truncated_mean_bound)
from .convex_geometry import (Ball, BoundaryPoint, Box, ConvexBody, Ellipsoid,
                              Intersection, Polytope, body_from_json,
                              body_to_json, contains, distance_to_boundary,
                              surface_area, volume)
from .estimates import Estimate, WosConfig
from .hh_verifier import (Affine, CertificateError, HarmonicPolynomial,
                          PositiveCombination, Quadratic, ShiftedNorm,
                          SubharmonicFn, boundary_integral, fn_from_json,
                          hh_via_torsion, verify_theorem1, volume_integral)
from .wos_engine import (MaxNormalDerivative, exit_time_mean,
                         lifetime_bound_check, max_normal_derivative,
                         normal_derivative, torsion_value)

__version__ = "0.1.0"
