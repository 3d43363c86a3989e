"""Closed-form constants, bounds, and the two sharpness examples."""

import math

import numpy as np
import pytest

from torsion_bound import analytic_library as al
from torsion_bound.estimates import Estimate

import oracles


class TestOmega:
    def test_small_dimensions(self):
        assert al.omega(2) == pytest.approx(math.pi, rel=1e-14)
        assert al.omega(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
        assert al.omega(10) == pytest.approx(math.pi**5 / 120.0, rel=1e-12)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            al.omega(1)


class TestNormalizedConstant:
    def test_equality_at_two(self):
        assert al.normalized_constant(2) == pytest.approx(al.SQRT_2PI,
                                                          abs=1e-12)

    def test_envelope_mid_range(self):
        v = al.normalized_constant(50)
        assert al.SQRT_2PI < v < al.SQRT_2PIE

    def test_limit(self):
        # Stirling: omega_n^{1/n} sqrt(n) = sqrt(2 pi e) (1 - ln(pi n)/(2n)
        # + O(1/n)), frozen from a 60-digit evaluation at n = 10^4; the
        # absolute gap there is 2.139e-3 (relative 5.2e-4)
        v = al.normalized_constant(10_000)
        assert v == pytest.approx(4.13059216489, abs=1e-9)
        assert abs(v - al.SQRT_2PIE) / al.SQRT_2PIE < 1e-3

    def test_monotone_on_grid(self):
        ns = [2, 3, 5, 10, 30, 100, 500, 2000, 10_000]
        vals = [al.normalized_constant(n) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBallFormulas:
    def test_torsion_values(self):
        assert al.ball_torsion(2, 1.0, 0.0) == 0.25
        assert al.ball_torsion(3, 2.0, 2.0) == 0.0
        assert al.ball_max_gradient(5, 1.0) == pytest.approx(0.2)

    def test_gradient_below_dimension_free_bound(self):
        for n in range(2, 11):
            vol = al.ball_volume(n, 1.0)
            assert al.ball_max_gradient(n, 1.0) <= al.theorem2_bound(n, vol)


class TestEllipsoidExample:
    def test_coefficient_and_gradient_n2(self):
        ex = al.ellipsoid_torsion(2)
        assert ex.coefficient == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert ex.max_gradient == pytest.approx(2.0 * math.sqrt(2.0) / 3.0,
                                                rel=1e-14)
        # dense parametric maximization over the boundary as the oracle
        oracle = oracles.ellipse_boundary_gradient_max(
            al.ellipsoid_semi_axes(2), ex.coefficient)
        assert ex.max_gradient == pytest.approx(oracle, rel=1e-8)

    def test_volume_root_n2(self):
        ex = al.ellipsoid_torsion(2)
        assert ex.volume_root == pytest.approx(
            math.sqrt(math.pi * 2.0 * math.sqrt(2.0)), rel=1e-14)

    def test_volume_root_limit(self):
        # converges to 2 sqrt(pi e) like O(ln n / n): frozen 60-digit
        # values at n = 10^4 and 10^6
        assert al.ellipsoid_torsion(10_000).volume_root == pytest.approx(
            5.83876038313, abs=1e-9)
        assert al.ellipsoid_torsion(1_000_000).volume_root == pytest.approx(
            2.0 * math.sqrt(math.pi * math.e), abs=1e-4)

    def test_stated_values_recorded(self):
        ex = al.ellipsoid_torsion(3)
        assert ex.stated_coefficient == 1.0
        assert ex.stated_max_gradient == 1.0

    def test_sharpness_ratio_floor(self):
        for n in range(2, 51):
            assert al.ellipsoid_torsion(n).sharpness_ratio > 0.10

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            al.ellipsoid_torsion(1)


class TestLifetimeBoundAssembly:
    def test_unit_disk_example(self):
        assert al.optimal_T(2, math.pi) == pytest.approx(0.25, rel=1e-14)
        assert al.minimized_bound(1.0, 2, math.pi) == pytest.approx(
            4.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_min_is_at_optimal_T(self):
        # the argmin is located as the zero of the horizon derivative
        # (calculus on T -> 2 sqrt(T) + a/sqrt(T)); direct minimization
        # can only place a smooth minimum to ~sqrt(machine eps)
        from scipy.optimize import brentq

        for n, vol, eps in ((2, math.pi, 1.0), (3, 1.0, 0.3), (5, 7.0, 0.01)):
            T_star = al.optimal_T(n, vol)
            assert al.assembled_lifetime_bound(eps, n, vol, T_star) == \
                pytest.approx(al.minimized_bound(eps, n, vol), rel=1e-12)

            def slope(T, h=1e-7 * T_star):
                return (al.assembled_lifetime_bound(eps, n, vol, T + h)
                        - al.assembled_lifetime_bound(eps, n, vol, T - h))

            root = brentq(slope, T_star / 50.0, T_star * 50.0,
                          xtol=1e-12 * T_star)
            assert root == pytest.approx(T_star, abs=1e-9 * max(1.0, T_star))

    def test_assembled_dominates_minimum(self):
        for T in np.logspace(-3, 3, 50):
            assert (al.assembled_lifetime_bound(1.0, 3, 2.0, float(T))
                    >= al.minimized_bound(1.0, 3, 2.0) - 1e-12)

    def test_unimodal_around_optimum(self):
        n, vol, eps = 4, 3.0, 0.5
        T_star = al.optimal_T(n, vol)
        grid = np.linspace(0.05 * T_star, 20.0 * T_star, 400)
        vals = [al.assembled_lifetime_bound(eps, n, vol, float(T))
                for T in grid]
        k = int(np.argmin(vals))
        assert np.all(np.diff(vals[:k + 1]) <= 1e-12)
        assert np.all(np.diff(vals[k:]) >= -1e-12)

    def test_rejects_bad_T(self):
        with pytest.raises(ValueError):
            al.assembled_lifetime_bound(1.0, 2, 1.0, 0.0)


class TestGradientBounds:
    def test_equality_at_n2_unit_disk(self):
        assert al.theorem2_bound(2, math.pi) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14)
        assert al.theorem2_raw_bound(2, math.pi) == pytest.approx(
            al.theorem2_bound(2, math.pi), rel=1e-12)

    def test_raw_tighter_for_higher_n(self):
        assert al.theorem2_raw_bound(3, 1.0) < al.theorem2_bound(3, 1.0)
        for n in range(2, 30):
            assert (al.theorem2_raw_bound(n, 2.5)
                    <= al.theorem2_bound(n, 2.5) + 1e-14)

    def test_raw_is_half_the_exit_time_constant(self):
        for n, vol in ((2, 1.0), (4, 9.0)):
            assert al.theorem2_raw_bound(n, vol) == pytest.approx(
                0.5 * al.minimized_bound(1.0, n, vol), rel=1e-14)


class TestCnLowerBound:
    def test_value_n2(self):
        assert al.cn_lower_bound(2) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)),
                                                     rel=1e-14)

    def test_half_inverse_sqrt_chain_fails(self):
        # the cruder floor (1/2)/sqrt(n) would need sqrt(n) omega^{1/n} <= 2,
        # contradicting the sqrt(2 pi) lower envelope; n = 2 already breaks it
        assert al.cn_lower_bound(2) < 0.5 / math.sqrt(2.0)

    def test_uniform_floor_holds(self):
        for n in range(2, 101):
            assert al.cn_lower_bound(n) >= 1.0 / (al.SQRT_2PIE * math.sqrt(n))


class TestHalfDiskExample:
    def test_closed_forms(self):
        ex = al.half_disk_example()
        assert ex.lhs == pytest.approx(math.pi / 2.0 - 2.0 / 3.0, rel=1e-15)
        assert ex.rhs_surface == pytest.approx(math.pi, rel=1e-15)
        assert ex.volume_root == pytest.approx(math.sqrt(math.pi / 2.0),
                                               rel=1e-15)

    def test_ratio_pins_the_constant(self):
        ex = al.half_disk_example()
        assert 0.22 < ex.ratio < al.GRADIENT_CONSTANT
        assert ex.ratio == pytest.approx(0.2296, abs=2e-4)


class TestBoundReport:
    def test_margin_rule(self):
        measured = Estimate(mean=1.0, stderr=0.1, samples=100)
        rep = al.make_report("q", measured, 0.9, "why")
        assert rep.margin == pytest.approx(-0.1)
        assert rep.passed  # within 4 stderr
        rep2 = al.make_report("q", measured, 0.5, "why")
        assert not rep2.passed
