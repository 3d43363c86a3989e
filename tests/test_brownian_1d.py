"""Closed forms and simulation of the 1-D level-crossing law."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from torsion_bound import brownian_1d as b1
from torsion_bound import rng

import oracles


class TestCdf:
    def test_value_at_one(self):
        law = b1.HittingTimeLaw(1.0)
        assert float(b1.cdf(law, 1.0)) == pytest.approx(oracles.CDF_AT_ONE,
                                                        abs=1e-13)

    def test_limits(self):
        law = b1.HittingTimeLaw(1.0)
        assert float(b1.cdf(law, 1e-12)) == pytest.approx(0.0, abs=1e-15)
        assert float(b1.cdf(law, 1e12)) == pytest.approx(1.0, abs=1e-5)

    def test_parabolic_scaling(self):
        a = float(b1.cdf(b1.HittingTimeLaw(1.0), 1.0))
        b = float(b1.cdf(b1.HittingTimeLaw(2.0), 4.0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_scaling_invariance_random_pairs(self):
        u = rng.uniforms(5, np.arange(200, dtype=np.uint64), 0, 3)
        for eps, t, lam in zip(0.1 + 3 * u[:, 0], 0.1 + 5 * u[:, 1],
                               0.5 + 2 * u[:, 2]):
            a = float(b1.cdf(b1.HittingTimeLaw(float(eps)), float(t)))
            b = float(b1.cdf(b1.HittingTimeLaw(float(lam * eps)),
                             float(lam * lam * t)))
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone(self):
        law = b1.HittingTimeLaw(0.7)
        ts = np.logspace(-3, 3, 200)
        vals = b1.cdf(law, ts)
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            b1.cdf(b1.HittingTimeLaw(1.0), 0.0)
        with pytest.raises(ValueError):
            b1.HittingTimeLaw(-1.0)


class TestDensity:
    def test_value_at_one(self):
        law = b1.HittingTimeLaw(1.0)
        expect = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        assert float(b1.density(law, 1.0)) == pytest.approx(expect, rel=1e-14)

    def test_integrates_to_cdf(self):
        # piecewise adaptive quadrature across the decades (one global
        # interval over 18 orders of magnitude starves the subdivision)
        law = b1.HittingTimeLaw(1.0)
        val = sum(quad(lambda t: float(b1.density(law, t)), a, b, limit=400,
                       epsabs=1e-12)[0]
                  for a, b in ((1e-12, 1.0), (1.0, 1e2), (1e2, 1e4),
                               (1e4, 1e6)))
        assert val == pytest.approx(float(b1.cdf(law, 1e6)), abs=1e-8)

    def test_matches_cdf_derivative(self):
        law = b1.HittingTimeLaw(1.3)
        for t in np.logspace(-1.5, 2.0, 40):
            h = 1e-6 * t
            fd = (float(b1.cdf(law, t + h)) - float(b1.cdf(law, t - h))) / (2 * h)
            assert fd == pytest.approx(float(b1.density(law, t)), rel=1e-6)

    def test_peak_location(self):
        # stationarity of log psi: locate the zero of its derivative
        # (direct maximization can only place a smooth peak to ~sqrt(eps))
        from scipy.optimize import brentq

        law = b1.HittingTimeLaw(1.0)

        def dlog(t, h=1e-7):
            return (math.log(float(b1.density(law, t + h)))
                    - math.log(float(b1.density(law, t - h)))) / (2 * h)

        root = brentq(dlog, 0.1, 1.0, xtol=1e-13)
        assert root == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_nonnegative(self):
        law = b1.HittingTimeLaw(2.0)
        assert np.all(b1.density(law, np.logspace(-6, 6, 500)) >= 0)


class TestTruncatedMean:
    def test_closed_form_value(self):
        law = b1.HittingTimeLaw(1.0)
        assert b1.truncated_mean(law, 1.0) == pytest.approx(
            oracles.TRUNCATED_MEAN_AT_ONE, abs=1e-10)

    def test_below_bound_everywhere(self):
        u = rng.uniforms(8, np.arange(1000, dtype=np.uint64), 0, 2)
        for eps, T in zip(0.05 + 4 * u[:, 0], 0.01 + 10 * u[:, 1]):
            law = b1.HittingTimeLaw(float(eps))
            assert (b1.truncated_mean(law, float(T))
                    < b1.truncated_mean_bound(law, float(T)))

    def test_parabolic_scaling(self):
        base = b1.truncated_mean(b1.HittingTimeLaw(1.0), 1.0)
        scaled = b1.truncated_mean(b1.HittingTimeLaw(2.0), 4.0)
        assert scaled == pytest.approx(4.0 * base, rel=1e-8)

    def test_vanishes_at_zero(self):
        assert b1.truncated_mean(b1.HittingTimeLaw(1.0), 1e-8) < 1e-12

    def test_bound_values(self):
        assert b1.truncated_mean_bound(b1.HittingTimeLaw(1.0), 1.0) == \
            pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
        assert b1.truncated_mean_bound(b1.HittingTimeLaw(0.5), 4.0) == \
            pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)


class TestSurvival:
    def test_value(self):
        law = b1.HittingTimeLaw(1.0)
        expect = 2.0 * oracles.PHI_HIGH_PRECISION[1.0] - 1.0
        assert float(b1.survival_probability(law, 1.0)) == pytest.approx(
            expect, abs=1e-12)

    def test_complements_cdf(self):
        law = b1.HittingTimeLaw(0.8)
        for t in (0.1, 1.0, 7.0):
            assert (float(b1.survival_probability(law, t))
                    + float(b1.cdf(law, t))) == pytest.approx(1.0, abs=1e-14)

    def test_linear_bound_everywhere(self):
        u = rng.uniforms(21, np.arange(1000, dtype=np.uint64), 0, 2)
        for eps, T in zip(0.05 + 4 * u[:, 0], 0.01 + 10 * u[:, 1]):
            law = b1.HittingTimeLaw(float(eps))
            assert (float(b1.survival_probability(law, float(T)))
                    <= b1.survival_linear_bound(law, float(T)))

    def test_limit_high_ratio(self):
        assert float(b1.survival_probability(b1.HittingTimeLaw(100.0), 1e-4)) \
            == pytest.approx(1.0, abs=1e-15)


class TestPhiLinearBound:
    def test_values(self):
        assert b1.phi_linear_bound(1e-14) == pytest.approx(0.5, abs=1e-14)
        assert float(b1.phi_linear_bound(1.0)) == pytest.approx(
            0.5 + 1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert float(b1.phi_linear_bound(3.0)) > 1.0

    def test_dominates_phi_on_grid(self):
        xs = np.linspace(1e-6, 8.0, 2000)
        assert np.all(b1.phi_linear_bound(xs) >= ndtr(xs))


class TestSimulation:
    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            b1.simulate_hitting_times(b1.HittingTimeLaw(0.1), 10, dt=1e-3,
                                      horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            b1.simulate_hitting_times(b1.HittingTimeLaw(1.0), 10, dt=-1.0,
                                      horizon=1.0, seed=0)

    @pytest.mark.parametrize("eps, count, dt, horizon", [
        (math.nan, 10, 1e-3, 1.0),
        (math.inf, 10, 1e-3, 1.0),
        (1.0, 10, math.nan, 1.0),
        (1.0, 10, math.inf, 1.0),
        (1.0, 10, 1e-3, math.nan),
        (1.0, 10, 1e-3, math.inf),
        (1.0, 2.5, 1e-3, 1.0),
        (1.0, 10, 1e-3, 4e-4),  # horizon rounds to zero steps
    ])
    def test_rejects_invalid_inputs(self, eps, count, dt, horizon):
        with pytest.raises(ValueError):
            b1.simulate_hitting_times(b1.HittingTimeLaw(eps), count, dt,
                                      horizon, seed=0)

    @pytest.mark.parametrize("nsteps", [10, 1000])
    def test_blocks_equal_per_path_loop(self, monkeypatch, nsteps):
        # eps = 1 with dt = eps^2 / 100 (10 steps) or 1e-3 (1000 steps)
        law = b1.HittingTimeLaw(1.0)
        dt = 1e-2 if nsteps == 10 else 1e-3
        rows = b1._BLOCK_STEPS // nsteps
        hits = 0
        for count in (1, rows - 1, rows, rows + 1, 300):
            times, censored = oracles.hitting_times_loop(law, count, dt,
                                                         nsteps * dt, seed=41)
            hits += len(times)
            for budget in (b1._BLOCK_STEPS, nsteps, count * nsteps):
                monkeypatch.setattr(b1, "_BLOCK_STEPS", budget)
                sample = b1.simulate_hitting_times(law, count, dt,
                                                   nsteps * dt, seed=41)
                assert np.array_equal(sample.times, times)
                assert sample.censored == censored
            monkeypatch.undo()
        assert hits > 0

    def test_zero_draws_match_the_unfloored_block(self, monkeypatch):
        # a uniform of exactly 0 fires wherever exp(-2 a b / dt) > 0, so
        # the floored exponents must not decide those lanes; path indices
        # pick the zeroed lanes, so every block layout zeroes the same ones
        law = b1.HittingTimeLaw(1.0)
        dt, count = 1e-3, 300
        draws = rng.path_draws
        exponents = []

        def zeroed(key, first, normals, unif):
            draws(key, first, normals, unif)
            rows, steps = np.indices(unif.shape)
            mask = (rows + first + steps) % 61 == 0
            unif[mask] = 0.0
            gap = np.maximum(1.0 - np.cumsum(normals * math.sqrt(dt), axis=1),
                             0.0)
            before = np.hstack([np.ones((len(gap), 1)), gap[:, :-1]])
            exponents.append((before * -2.0 * gap / dt)[mask])

        monkeypatch.setattr(rng, "path_draws", zeroed)
        times, censored = oracles.hitting_times_block(law, count, dt, 1.0,
                                                      seed=43)
        for budget in (b1._BLOCK_STEPS, 1000, 7 * 1000):
            monkeypatch.setattr(b1, "_BLOCK_STEPS", budget)
            sample = b1.simulate_hitting_times(law, count, dt, 1.0, seed=43)
            assert np.array_equal(sample.times, times)
            assert sample.censored == censored
        x = np.concatenate(exponents)
        assert np.any(np.exp(x) == 0.0)  # underflows: never fires
        assert np.any((np.exp(x) > 0.0) & (x < b1._EXP_FLOOR))  # fires
        monkeypatch.undo()
        plain = b1.simulate_hitting_times(law, count, dt, 1.0, seed=43)
        assert not np.array_equal(plain.times, times)

    def test_deterministic(self):
        law = b1.HittingTimeLaw(1.0)
        a = b1.simulate_hitting_times(law, 50, 1e-3, 0.5, seed=3)
        b = b1.simulate_hitting_times(law, 50, 1e-3, 0.5, seed=3)
        assert np.array_equal(a.times, b.times)
        assert a.censored == b.censored

    def test_empirical_cdf_and_censoring(self):
        law = b1.HittingTimeLaw(1.0)
        sample = b1.simulate_hitting_times(law, 8000, 1e-3, 1.0, seed=17)
        hit = len(sample.times) / sample.count
        expect = float(b1.cdf(law, 1.0))
        se = math.sqrt(expect * (1 - expect) / sample.count)
        assert abs(hit - expect) <= 4.0 * se
        surv = float(b1.survival_probability(law, 1.0))
        assert abs(sample.censored / sample.count - surv) <= 4.0 * se

    def test_ks_against_conditional_law(self):
        law = b1.HittingTimeLaw(1.0)
        sample = b1.simulate_hitting_times(law, 8000, 1e-3, 1.0, seed=29)
        cond = b1.conditional_cdf(law, 1.0)
        ks = b1.ks_distance(sample.times, cond)
        # ~2500 hits: the 1e-3-significance KS threshold is 1.949/sqrt(m),
        # plus the law's largest rise over one step of the time grid
        step_rise = np.max(np.diff(cond(sample.dt * np.arange(1, 1001)),
                                   prepend=0.0))
        assert ks < 1.949 / math.sqrt(len(sample.times)) + step_rise

    def test_ks_matches_scipy(self):
        law = b1.HittingTimeLaw(1.0)
        sample = b1.simulate_hitting_times(law, 500, 1e-3, 1.0, seed=31)
        ours = b1.ks_distance(sample.times, b1.conditional_cdf(law, 1.0))
        theirs = oracles.ks_statistic_scipy(sample.times,
                                            b1.conditional_cdf(law, 1.0))
        assert ours == pytest.approx(theirs, abs=1e-12)
