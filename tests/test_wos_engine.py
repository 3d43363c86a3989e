"""Walk-on-spheres estimates against closed forms and grid oracles."""

import math

import numpy as np
import pytest

from torsion_bound import analytic_library as al
from torsion_bound import convex_geometry as cg
from torsion_bound import presets
from torsion_bound import rng
from torsion_bound import wos_engine as wos
from torsion_bound.estimates import WosConfig

import oracles

CFG = WosConfig(samples=10_000, seed=0)


class TestWosConfig:
    def test_samples_at_least_two(self):
        # one value has no stderr, and a stderr of 0 marks an exact value
        for samples in (1, 0, -3):
            with pytest.raises(ValueError, match="samples must be >= 2"):
                WosConfig(samples=samples)
        with pytest.raises(ValueError, match="samples must be >= 2"):
            CFG.replace(samples=1)
        assert WosConfig(samples=2).samples == 2


class TestSquareTorsionSeries:
    """The series oracle agrees with its frozen values."""

    def test_frozen_values(self):
        assert abs(oracles.square_torsion_series(0.5, 0.5)
                   - oracles.SQUARE_TORSION_CENTER) <= 1e-15
        assert abs(oracles.square_torsion_series(0.25, 0.5)
                   - oracles.SQUARE_TORSION_QUARTER) <= 1e-15


class TestTorsionValue:
    def test_ball_center_n2(self):
        est = wos.torsion_value(cg.Ball([0.0, 0.0], 1.0), [0.0, 0.0], CFG)
        assert abs(est.mean - 0.25) <= 3.0 * est.stderr + 2.0 * CFG.shell_width

    def test_ball_n3_off_center(self):
        est = wos.torsion_value(cg.Ball([0.0] * 3, 1.0), [0.5, 0.0, 0.0], CFG)
        exact = (1.0 - 0.25) / 6.0
        assert abs(est.mean - exact) <= 3.0 * est.stderr + 2.0 * CFG.shell_width

    def test_ball_random_points(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([8, 0],
                                                                dtype=np.uint64)))
        for n, radius in ((2, 0.5), (4, 2.0)):
            body = cg.Ball([0.0] * n, radius)
            for _ in range(5):
                x = gen.uniform(-0.6, 0.6, size=n) * radius
                est = wos.torsion_value(body, x, CFG)
                exact = al.ball_torsion(n, radius, float(np.linalg.norm(x)))
                tol = 3.0 * est.stderr + 2.0 * CFG.shell_width * radius
                assert abs(est.mean - exact) <= tol

    def test_box_center_vs_grid_oracle(self):
        est = wos.torsion_value(cg.Box([0.0, 0.0], [1.0, 1.0]),
                                [0.5, 0.5], CFG)
        tol = 3.0 * est.stderr + 2.0 * CFG.shell_width
        assert abs(est.mean - oracles.SQUARE_TORSION_CENTER) <= tol

    def test_box_off_center_vs_series(self):
        est = wos.torsion_value(cg.Box([0.0, 0.0], [1.0, 1.0]),
                                [0.25, 0.5], CFG)
        tol = 3.0 * est.stderr + 2.0 * CFG.shell_width
        assert abs(est.mean - oracles.SQUARE_TORSION_QUARTER) <= tol

    @pytest.mark.parametrize("n", [2, 4])
    def test_ellipsoid_closed_form(self, n):
        # u = (1 - sum x_i^2/a_i^2) / (2 sum a_i^-2) on any ellipsoid
        body = presets.beck_ellipsoid(n)
        a = body.semi_axes
        x = np.zeros(n)
        x[0] = 0.45 * a[0]
        exact = (1.0 - np.sum(x**2 / a**2)) / (2.0 * np.sum(a**-2.0))
        est = wos.torsion_value(body, x, CFG.replace(samples=40_000,
                                                      seed=12345))
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    def test_ellipsoid_distance_rows_per_walk(self):
        # the second-order distance bound keeps walks on the Beck
        # ellipsoid near the exact distance's 27 rows per walk (the axis
        # bound b_min (1 - sqrt(q)) took 39)
        body = presets.beck_ellipsoid(4)
        rows = 0
        inner = body.distances_many

        def counted(points):
            nonlocal rows
            rows += len(points)
            return inner(points)

        body.distances_many = counted
        cfg = CFG.replace(seed=12345)
        res = wos.max_normal_derivative(body, cfg, boundary_samples=8)
        assert rows / (res.evaluations * cfg.samples) <= 30.0

    def test_rejects_exterior_and_shell_points(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            wos.torsion_value(body, [2.0, 0.0], CFG)
        with pytest.raises(ValueError):
            wos.torsion_value(body, [1.0 - 1e-6, 0.0], CFG)

    def test_deterministic_and_partition_invariant(self, monkeypatch):
        # the polytope's distance is a matrix product, which numpy rounds
        # differently when the last walk of a block is left alone
        for body, x in ((cg.Ball([0.0] * 3, 1.0), [0.2, 0.1, -0.3]),
                        (presets.body_preset("random-polytope-n3"),
                         [0.57, -0.25, 0.08])):
            a = wos.torsion_value(body, x, CFG)
            assert wos.torsion_value(body, x, CFG) == a
            for block in (7, 4096):
                monkeypatch.setattr(wos, "_BLOCK", block)
                assert wos.torsion_value(body, x, CFG) == a
            monkeypatch.undo()

    @pytest.mark.parametrize("name", [
        "random-polytope-n3", "beck-ellipsoid-n4", "half-disk", "simplex-n4"])
    def test_continuous_in_the_start(self, name):
        # walks are keyed by the seed and walk index, not by the start's
        # bits, so a one-ulp move of the start moves the estimate by ulps
        body = presets.body_preset(name)
        x = body.interior_point()
        a = wos.torsion_value(body, x, CFG)
        b = wos.torsion_value(body, np.nextafter(x, np.inf), CFG)
        assert b.mean == pytest.approx(a.mean, rel=1e-12, abs=0.0)
        assert b.stderr == pytest.approx(a.stderr, rel=1e-12, abs=0.0)

    def test_shell_halving_stable(self):
        body = presets.half_ball(2)
        x = np.array([0.0, 0.4])
        a = wos.torsion_value(body, x, CFG)
        b = wos.torsion_value(body, x, CFG.replace(shell_width=5e-5))
        joint = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 3.0 * joint + 2.0 * CFG.shell_width * body.diameter

    def test_truncation_reported_not_dropped(self, monkeypatch):
        body = cg.Ball([0.0, 0.0], 1.0)
        monkeypatch.setattr(wos, "_MAX_STEPS", 2)
        est = wos.torsion_value(body, [0.3, 0.0], CFG.replace(samples=500))
        assert est.truncated_fraction > 0.5
        assert est.degraded
        # capped walks carry the uniform remainder bound, keeping the
        # estimate an upper-bound-compatible quantity
        assert est.mean >= al.ball_torsion(2, 1.0, 0.3) - 3.0 * est.stderr
        # one step from the centre reaches the sphere: every walk is capped
        # and adds R^2/(2n) plus the remainder bound
        body = cg.Ball([0.0] * 3, 1.0)
        monkeypatch.setattr(wos, "_MAX_STEPS", 1)
        est = wos.torsion_value(body, [0.0] * 3, CFG.replace(samples=500))
        assert est.truncated_fraction == 1.0
        assert est.mean == pytest.approx(1.0 / 6.0 + wos._tail_bound(body),
                                         rel=1e-12)


class TestPerStepReference:
    """torsion_value equals the earlier walk, which re-keyed its walks and
    drew per slot at every step, bit for bit."""

    @pytest.mark.parametrize("name", [
        "unit-ball-n2", "unit-box-n2", "beck-ellipsoid-n4", "half-disk",
        "random-polytope-n3", "simplex-n5"])
    def test_estimate_equal(self, name):
        body = (presets.simplex(5) if name == "simplex-n5"
                else presets.body_preset(name))
        n = body.dimension
        x = body.interior_point() + 0.5 * body.inradius() / math.sqrt(n)
        cfg = WosConfig(samples=2000, seed=13)
        est = wos.torsion_value(body, x, cfg)
        assert est.stderr > 0
        assert est == oracles.torsion_value_per_step(body, x, cfg)

    def test_estimate_equal_across_blocks(self, monkeypatch):
        body = presets.body_preset("random-polytope-n3")
        x = body.interior_point()
        cfg = WosConfig(samples=2000, seed=17)
        ref = oracles.torsion_value_per_step(body, x, cfg)
        monkeypatch.setattr(wos, "_BLOCK", 777)
        assert wos.torsion_value(body, x, cfg) == ref


class TestExitTime:
    def test_ball_center(self):
        est = wos.exit_time_mean(cg.Ball([0.0, 0.0], 1.0), [0.0, 0.0], CFG)
        assert abs(est.mean - 0.5) <= 3.0 * est.stderr + 4.0 * CFG.shell_width

    def test_twice_torsion(self):
        body = presets.half_ball(2)
        x = [0.1, 0.3]
        t = wos.torsion_value(body, x, CFG)
        e = wos.exit_time_mean(body, x, CFG)
        assert e.mean == pytest.approx(2.0 * t.mean, rel=1e-15)
        assert e.stderr == pytest.approx(2.0 * t.stderr, rel=1e-15)

    def test_parabolic_scaling(self):
        small = wos.exit_time_mean(cg.Ball([0.0, 0.0], 1.0), [0.3, 0.0], CFG)
        big = wos.exit_time_mean(cg.Ball([0.0, 0.0], 2.0), [0.6, 0.0], CFG)
        joint = math.hypot(4.0 * small.stderr, big.stderr)
        assert abs(big.mean - 4.0 * small.mean) <= 3.0 * joint + 0.01

    def test_domain_monotonicity(self):
        inner = cg.Ball([0.0, 0.0], 0.8)
        outer = cg.Ball([0.1, 0.0], 1.2)
        x = [0.0, 0.2]
        a = wos.exit_time_mean(inner, x, CFG)
        b = wos.exit_time_mean(outer, x, CFG)
        assert a.mean <= b.mean + 4.0 * math.hypot(a.stderr, b.stderr)

    def test_lemma3_domination_random_bodies(self):
        for i in range(8):
            n = 2 + (i % 2)
            body, vol = presets.random_body(n, seed=90, index=i)
            x = presets.random_interior_point(
                body, seed=i, min_depth=2 * CFG.shell_width * body.diameter)
            est = wos.exit_time_mean(body, x, CFG)
            bound = al.lifetime_bound(n, vol)
            assert est.mean <= bound + 4.0 * est.stderr, (i, est, bound)

    def test_ball_at_center_near_equality(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        est = wos.exit_time_mean(body, [0.0, 0.0], CFG)
        bound = al.lifetime_bound(2, body.volume_exact())
        assert abs(est.mean - bound) <= 2.0 * est.stderr + 1e-12


def boundary_point(body, seed):
    # operation tag 101 keeps the points these checks were written against
    pos, nrm, _w = body.boundary_arrays(1, rng.derive(seed, 101))
    return cg.BoundaryPoint(position=pos[0], inward_normal=nrm[0])


class TestNormalDerivative:
    def test_ball_n2(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        bp = boundary_point(body, 3)
        est = wos.normal_derivative(body, bp, CFG)
        delta = CFG.fd_delta * body.diameter
        assert abs(est.mean - 0.5) <= 3.0 * est.stderr + delta / 4.0 + 1e-3

    def test_ball_n4(self):
        body = cg.Ball([0.0] * 4, 1.0)
        bp = boundary_point(body, 4)
        est = wos.normal_derivative(body, bp, CFG)
        delta = CFG.fd_delta * body.diameter
        assert abs(est.mean - 0.25) <= 3.0 * est.stderr + delta / 8.0 + 1e-3

    def test_ellipse_tip(self):
        body = presets.beck_ellipsoid(2)
        bp = cg.BoundaryPoint(position=np.array([0.0, math.sqrt(2.0)]),
                              inward_normal=np.array([0.0, -1.0]))
        est = wos.normal_derivative(body, bp, CFG)
        exact = al.ellipsoid_torsion(2).max_gradient
        delta = CFG.fd_delta * body.diameter
        assert abs(est.mean - exact) <= 3.0 * est.stderr + delta / 2.0

    def test_corner_probe_shrinks_or_rejects(self):
        body = presets.simplex(2)
        # inward normal of the hypotenuse face at a point pinched into the
        # right-angle corner: the full-delta probe exits, a shrunk one fits
        bp = cg.BoundaryPoint(position=np.array([0.02, 0.0]),
                              inward_normal=np.array([0.0, 1.0]))
        est = wos.normal_derivative(body, bp, CFG)
        assert est.mean > 0.0
        pinched = cg.BoundaryPoint(position=np.array([1e-9, 0.0]),
                                   inward_normal=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            wos.normal_derivative(body, pinched,
                                  CFG.replace(shell_width=1e-2, fd_delta=0.02))


class TestMaxNormalDerivative:
    def test_ball_constant_over_boundary(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        res = wos.max_normal_derivative(body, CFG, boundary_samples=40)
        assert abs(res.estimate.mean - 0.5) <= 5.0 * res.estimate.stderr + 0.01
        assert res.evaluations == 40 and res.rejected == 0

    def test_ellipse_max_near_tip(self):
        body = presets.beck_ellipsoid(2)
        res = wos.max_normal_derivative(body, CFG, boundary_samples=60)
        exact = al.ellipsoid_torsion(2).max_gradient
        # sampled max sits below the true max plus selection noise
        assert res.estimate.mean <= exact + 5.0 * res.estimate.stderr + 0.02
        assert res.estimate.mean >= 0.8 * exact
        # argmax localizes near an apex (0, +-sqrt(2))
        assert abs(abs(res.location[1]) - math.sqrt(2.0)) < 0.35

    def test_box_vs_grid_oracle_and_bound(self):
        body = cg.Box([0.0, 0.0], [1.0, 1.0])
        res = wos.max_normal_derivative(body, CFG, boundary_samples=60)
        assert (res.estimate.mean
                <= oracles.SQUARE_EDGE_MAX_GRADIENT
                + 5.0 * res.estimate.stderr + 0.02)
        assert res.estimate.mean <= al.theorem2_bound(2, 1.0)

    @pytest.mark.parametrize("name", ["half-disk", "unit-box-n2",
                                      "beck-ellipsoid-n2"])
    @pytest.mark.parametrize("samples", [8, 40])
    def test_probes_are_the_stratified_sample(self, monkeypatch, name,
                                              samples):
        body = presets.body_preset(name)
        probed = []
        probe = wos.normal_derivative

        def record(body, bp, cfg):
            probed.append(bp.position)
            return probe(body, bp, cfg)

        monkeypatch.setattr(wos, "normal_derivative", record)
        cfg = CFG.replace(samples=200)
        res = wos.max_normal_derivative(body, cfg, samples)
        expect = body.stratified_boundary(
            samples, rng.derive(cfg.seed, wos._TAG_MAXGRAD))[0]
        assert np.array_equal(np.array(probed), expect)
        assert any(np.array_equal(res.location, p) for p in expect)

    @pytest.mark.parametrize("name", ["simplex-n2", "random-polytope-n3"])
    def test_rejected_probes_are_counted(self, monkeypatch, name):
        # a wide shell and a deep probe pinch the probes near corners
        body = presets.body_preset(name)
        calls, raised = [], []
        probe = wos.normal_derivative

        def count(body, bp, cfg):
            calls.append(bp.position)
            try:
                return probe(body, bp, cfg)
            except ValueError:
                raised.append(bp.position)
                raise

        monkeypatch.setattr(wos, "normal_derivative", count)
        cfg = CFG.replace(samples=200, shell_width=1e-2, fd_delta=0.02)
        res = wos.max_normal_derivative(body, cfg, 64)
        assert len(calls) == 64
        assert res.rejected == len(raised) > 0
        assert res.evaluations + res.rejected == 64

    def test_theorem2_on_half_disk(self):
        body = presets.half_ball(2)
        res = wos.max_normal_derivative(body, CFG, boundary_samples=40)
        bound = al.theorem2_bound(2, math.pi / 2.0)
        assert res.estimate.mean <= bound + 4.0 * res.estimate.stderr


class TestLifetimeBoundCheck:
    def test_ball_example(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        rep = wos.lifetime_bound_check(body, epsilon=0.05, cfg=CFG,
                                       boundary_samples=4)
        assert rep.passed
        # closed form at radius 0.95: (1 - 0.95^2)/2 = 0.04875
        assert rep.measured.mean == pytest.approx(0.04875, abs=0.002)
        assert rep.bound_value == pytest.approx(
            al.minimized_bound(0.05, 2, math.pi), rel=1e-12)

    def test_box_n3(self):
        body = cg.Box([0.0] * 3, [1.0] * 3)
        rep = wos.lifetime_bound_check(body, epsilon=0.01, cfg=CFG,
                                       boundary_samples=4)
        assert rep.passed

    def test_epsilon_exceeding_inradius_rejected(self):
        with pytest.raises(ValueError):
            wos.lifetime_bound_check(cg.Ball([0.0, 0.0], 1.0), epsilon=1.5,
                                     cfg=CFG)



_FAMILIES = {"ball": presets.unit_ball, "box": presets.unit_box,
             "simplex": presets.simplex, "ellipsoid": presets.beck_ellipsoid,
             "half-ball": presets.half_ball}


def _lifetime_and_starts(monkeypatch, body, cfg):
    """lifetime_bound_check at eps = inradius / 10 from 4 boundary points,
    with the starts its walk loop ran from."""
    seen = []
    loop = wos._torsion_values

    def record(body, starts, cfg):
        seen.append(starts.copy())
        return loop(body, starts, cfg)

    monkeypatch.setattr(wos, "_torsion_values", record)
    rep = wos.lifetime_bound_check(body, 0.1 * body.inradius(), cfg,
                                   boundary_samples=4)
    monkeypatch.setattr(wos, "_torsion_values", loop)
    assert len(seen) == 1
    return rep, seen[0]


def _assert_per_start(rep, starts, body, cfg):
    """rep's figures equal a loop of one-start exit_time_mean calls."""
    ref = [wos.exit_time_mean(body, x, cfg) for x in starts]
    worst = ref[0]
    for est in ref[1:]:
        if est.mean > worst.mean:
            worst = est
    assert rep.details["per_point_means"] == [e.mean for e in ref]
    assert rep.details["points_used"] == len(starts)
    assert rep.measured == worst


class TestMultiStart:
    """The eps-deep starts run in one walk loop whose every start equals
    its own one-start call bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_lifetime_equals_per_start_calls(self, monkeypatch, family, n):
        body = _FAMILIES[family](n)
        cfg = WosConfig(samples=1000, seed=n)
        rep, starts = _lifetime_and_starts(monkeypatch, body, cfg)
        assert len(starts) >= 2
        _assert_per_start(rep, starts, body, cfg)

    @pytest.mark.parametrize("block", [1, 777, wos._BLOCK])
    @pytest.mark.parametrize("name", ["half-disk", "random-polytope-n3",
                                      "simplex-n4"])
    def test_lifetime_equal_across_blocks(self, monkeypatch, name, block):
        body = presets.body_preset(name)
        cfg = WosConfig(samples=300, seed=11)
        ref, starts = _lifetime_and_starts(monkeypatch, body, cfg)
        monkeypatch.setattr(wos, "_BLOCK", block)
        rep = wos.lifetime_bound_check(body, 0.1 * body.inradius(), cfg,
                                       boundary_samples=4)
        assert rep.details == ref.details
        assert rep.measured == ref.measured
        monkeypatch.undo()
        _assert_per_start(rep, starts, body, cfg)

    def test_duplicate_starts_give_identical_estimates(self):
        body = presets.body_preset("random-polytope-n3")
        x = body.interior_point()
        y = x + 0.3 * body.inradius()
        cfg = WosConfig(samples=2000, seed=3)
        ests = wos._torsion_values(body, np.array([x, x, y, x]), cfg)
        assert ests[0] == ests[1] == ests[3] == wos.torsion_value(body, x, cfg)
        assert ests[2] == wos.torsion_value(body, y, cfg) != ests[0]

    @pytest.mark.parametrize("name", ["unit-ball-n2", "unit-box-n2",
                                      "half-disk", "beck-ellipsoid-n4"])
    def test_step_cap_counts_per_start(self, monkeypatch, name):
        # starts at several depths, so each is capped on its own walks
        body = presets.body_preset(name)
        n = body.dimension
        c = body.interior_point()
        starts = np.array([c + t * body.inradius() * np.eye(n)[0]
                           for t in (0.0, 0.5, 0.9, 0.99)])
        cfg = WosConfig(samples=500, seed=7)
        monkeypatch.setattr(wos, "_MAX_STEPS", 3)
        ests = wos._torsion_values(body, starts, cfg)
        one = [wos.torsion_value(body, x, cfg) for x in starts]
        assert ests == one
        fractions = [e.truncated_fraction for e in ests]
        assert len(set(fractions)) > 1 and max(fractions) > 0.0

    @pytest.mark.parametrize("name", ["unit-box-n2", "beck-ellipsoid-n4",
                                      "half-disk", "simplex-n3"])
    def test_every_start_equals_the_per_step_reference(self, name):
        body = presets.body_preset(name)
        n = body.dimension
        c = body.interior_point()
        starts = np.array([c + t * body.inradius() * np.eye(n)[-1]
                           for t in (-0.5, 0.0, 0.7)])
        cfg = WosConfig(samples=1000, seed=19)
        for x, est in zip(starts, wos._torsion_values(body, starts, cfg)):
            assert est == oracles.torsion_value_per_step(body, x, cfg)
