"""Tests of the benchmark's own oracles and checks.

Each oracle reproduces a value known from elsewhere, and each closeness
check of a workload fails once the program's value it reads is moved by
10 standard errors (or, for exact values, by 1e-9 relative), so no check
is vacuous.  The workload tests run one round at reduced sizes.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench_oracles as orc  # noqa: E402
import bench_workloads as bw  # noqa: E402
from torsion_bound import convex_geometry as cg  # noqa: E402
from torsion_bound import presets  # noqa: E402
from torsion_bound import wos_engine as wos  # noqa: E402


# ---------------------------------------------------------------------------
# oracles against known values


def test_square_edge_maximum():
    assert orc.square_edge_gradient(0.5) == pytest.approx(0.337657228991638, abs=1e-6)


def test_rectangle_series():
    # series values for the unit square (center and (1/4, 1/2))
    assert orc.rectangle_torsion(0.5, 0.5) == pytest.approx(0.0736713532815138, abs=1e-12)
    assert orc.rectangle_torsion(0.25, 0.5) == pytest.approx(0.0573349064746083, abs=1e-12)
    # the 2 x 1 and 1 x 2 rectangles are congruent
    assert orc.rectangle_torsion(1.0, 0.5, 2.0, 1.0) == pytest.approx(
        orc.rectangle_torsion(0.5, 1.0, 1.0, 2.0), abs=1e-12)
    # u / delta tends to the edge derivative
    delta = 1e-4
    assert orc.rectangle_torsion(0.5, delta) / delta == pytest.approx(
        orc.square_edge_gradient(0.5), abs=1e-4)


def test_truncated_mean_at_one():
    assert orc.truncated_mean(1.0, 1.0) == pytest.approx(0.16663094117537259677, abs=1e-12)
    assert orc.truncated_mean(1.0, 1.0) <= orc.truncated_mean_bound(1.0, 1.0)


def test_crossing_law_at_one():
    # 2 - 2 Phi(1) from a 50-digit computation
    assert float(orc.crossing_cdf(1.0, 1.0)) == pytest.approx(0.31731050786291410283, abs=1e-14)
    assert orc.survival(1.0, 1.0) == pytest.approx(1.0 - 0.31731050786291410283, abs=1e-14)


def test_volumes():
    assert orc.omega(2) == pytest.approx(math.pi, rel=1e-15)
    assert orc.omega(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    cube = np.vstack([np.eye(3), -np.eye(3)])
    assert orc.hull_volume(cube, np.r_[np.ones(3), np.zeros(3)]) == pytest.approx(1.0, rel=1e-12)
    simplex = presets.simplex(3, scale=2.0)
    assert orc.volume(simplex) == pytest.approx(8.0 / 6.0, rel=1e-15)
    assert orc.hull_volume(simplex.A, simplex.c) == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert orc.volume(presets.half_ball(2)) == pytest.approx(math.pi / 2.0, rel=1e-15)
    poly = presets.body_preset("random-polytope-n3")
    assert orc.volume(poly) == pytest.approx(9.605448030927077, rel=1e-12)


def test_inradius_and_deep_points():
    gen = np.random.default_rng(3)
    for body in (presets.unit_ball(3), presets.unit_box(2), presets.simplex(3, 1.5),
                 cg.Ellipsoid([0.5, -0.5], [2.0, 0.7])):
        for _ in range(20):
            x = orc.deep_point(body, gen)
            assert -orc.level(body, x) >= 0.5 * orc.inradius(body) * (1 - 1e-12)


def test_exit_times_and_torsion():
    ball = cg.Ball([1.0, 2.0, 0.0], 2.0)
    x = np.array([1.5, 2.0, 1.0])
    assert 2.0 * orc.torsion(ball, x) == pytest.approx((4.0 - 1.25) / 3.0, rel=1e-15)
    ell = cg.Ellipsoid([0.0, 0.0], [2.0, 1.0])
    # u = (1 - x^2/4 - y^2) / (2 (1/4 + 1)); -lap u = 1
    assert orc.torsion(ell, np.array([1.0, 0.5])) == pytest.approx(0.5 / 2.5, rel=1e-15)
    assert orc.ball_exit_bound(3, orc.omega(3) * 8.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_box_integral_and_harmonicity():
    cubic = {"kind": "harmonic_polynomial",
             "terms": [{"powers": [3, 0], "coeff": 1.0},
                       {"powers": [1, 2], "coeff": -3.0},
                       {"powers": [0, 0], "coeff": 5.0}]}
    # int_0^1 int_0^1 x^3 - 3 x y^2 + 5 = 1/4 - 1/2 + 5
    assert orc.box_integral(cubic, np.zeros(2), np.ones(2)) == pytest.approx(4.75, rel=1e-14)
    assert orc.is_harmonic(cubic)
    square = {"kind": "harmonic_polynomial", "terms": [{"powers": [2, 0], "coeff": 1.0}]}
    assert not orc.is_harmonic(square)


def test_ks_check_accepts_the_law_and_rejects_a_shift():
    eps, horizon, dt = 0.5, 0.5, 0.0025
    u = np.random.default_rng(1).uniform(size=4000) * float(orc.crossing_cdf(eps, horizon))
    # inverse of erfc(eps / sqrt(2 t)), rounded up to the step grid
    from scipy.special import erfcinv
    times = np.ceil(eps ** 2 / (2.0 * erfcinv(u) ** 2) / dt) * dt
    limit = orc.ks_limit(eps, horizon, dt, len(times))
    assert orc.ks_conditional(times, eps, horizon) <= limit
    assert orc.ks_conditional(times * 1.5, eps, horizon) > limit


def test_comparisons_are_not_vacuous():
    assert orc.close(1.0 + 4.9 * 0.1, 1.0, 0.1)
    assert not orc.close(1.0 + 10 * 0.1, 1.0, 0.1)
    assert not orc.close(1.0 - 10 * 0.1, 1.0, 0.1)
    assert orc.at_most(2.0 + 3.9 * 0.1, 2.0, 0.1)
    assert not orc.at_most(2.0 + 10 * 0.1, 2.0, 0.1)


# ---------------------------------------------------------------------------
# workload checks on one real round, then on moved outputs


def _moved(est, k=10.0):
    """The estimate moved up by k standard errors (1e-9 relative if exact)."""
    step = k * est.stderr if est.stderr else 1e-9 * abs(est.mean)
    return dataclasses.replace(est, mean=est.mean + step)


def _failed(results):
    return {name for name, ok in results if not ok}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(bw, "WALKS", 2000)
    monkeypatch.setattr(bw.ExitLemmas, "BODIES", 12)
    monkeypatch.setattr(bw.ExitLemmas, "LIFETIME_BODIES", 4)
    monkeypatch.setattr(bw.ExitLemmas, "LIFETIME_SAMPLES", 2)
    monkeypatch.setattr(bw.ExitLemmas, "CROSSINGS", 3)
    monkeypatch.setattr(bw.ExitLemmas, "PATHS", 800)
    monkeypatch.setattr(bw.ExitLemmas, "STEPS", 500)
    monkeypatch.setattr(bw.ExitLemmas, "GRID", 20)
    monkeypatch.setattr(bw.HhSuite, "SAMPLES", 4000)
    monkeypatch.setattr(bw.HhSuite, "HALF_DISK_SAMPLES", 20_000)


def test_gradient_max_checks(small):
    wl = bw.GradientMax(seed=5)
    counted = wos.normal_derivative
    try:
        outputs = wl.round()
        assert _failed(wl.checks(outputs)) == set()
        moved = [(g, c, r, _moved(v)) for g, c, r, v in outputs]
        assert _failed(wl.checks(moved)) == {f"{name}: volume" for name in wl.BODIES}
        miscounted = [(g, c + 1, r, v) for g, c, r, v in outputs]
        assert _failed(wl.checks(miscounted)) == {
            f"{name}: evaluations = probes - rejected" for name in wl.BODIES}
        wos.normal_derivative = lambda *a, **k: _moved(counted(*a, **k))
        failed = _failed(wl.checks(outputs))
        closed_form = {f"{name}: fresh estimate = u(x + delta nu)/delta"
                       for name in ("unit-ball-n2", "unit-box-n2", "beck-ellipsoid-n4")}
        assert closed_form <= failed
        assert all("fresh estimate <=" in f for f in failed - closed_form)
    finally:
        wos.normal_derivative = counted
        wl.counter.close()
    assert wos.normal_derivative.__module__ == "torsion_bound.wos_engine"


def test_exit_lemmas_checks(small):
    wl = bw.ExitLemmas(seed=5)
    outputs = wl.round()
    exits, lifetimes, crossings, means = outputs
    known = wl.KNOWN_FAULTS
    # the quadrature's known misses fail in every round, nothing else does
    assert _failed(wl.checks(outputs)) == known

    failed = _failed(wl.checks(([_moved(e) for e in exits], lifetimes, crossings, means))) - known
    closed_form = {i for i, (body, x) in enumerate(wl.bodies)
                   if orc.torsion(body, x) is not None}
    assert closed_form
    assert {f for f in failed if f.endswith("exit time = 2u")} == {
        f"body {i} ({type(wl.bodies[i][0]).__name__}, n={wl.bodies[i][0].dimension}):"
        " exit time = 2u" for i in closed_form}

    moved_bounds = [dataclasses.replace(
        r, bound_value=r.bound_value + (10 * r.bound_stderr or 1e-9 * r.bound_value))
        for r in lifetimes]
    failed = _failed(wl.checks((exits, moved_bounds, crossings, means))) - known
    assert {f for f in failed if f.endswith("reported bound")} and all(
        f.endswith("reported bound") for f in failed)

    shifted = []
    for s in crossings:
        surv = s.censored / s.count
        step = int(math.ceil(10 * math.sqrt(surv * (1 - surv) * s.count)))
        shifted.append(dataclasses.replace(s, times=s.times[step:], censored=s.censored + step))
    failed = _failed(wl.checks((exits, lifetimes, shifted, means))) - known
    assert len([f for f in failed if "censored fraction" in f]) == len(crossings)

    slowed = [dataclasses.replace(s, times=s.times * 1.5) for s in crossings]
    failed = _failed(wl.checks((exits, lifetimes, slowed, means))) - known
    assert len([f for f in failed if "KS distance" in f]) == len(crossings)

    points = [*wl.grid, *wl.KNOWN_MISSES]
    exact = [orc.truncated_mean(e, T) for e, T in points]
    assert _failed(wl.checks((exits, lifetimes, crossings, exact))) == set()
    nudged = [m + 2 * wl.MEAN_TOL for m in exact]
    assert _failed(wl.checks((exits, lifetimes, crossings, nudged))) == {
        "truncated_mean = closed form to 1e-9 on the grid",
        "truncated_mean = closed form to 1e-9 at the known misses"}
    above = [orc.truncated_mean_bound(e, T) * (1 + 1e-9) for e, T in points]
    failed = _failed(wl.checks((exits, lifetimes, crossings, above)))
    assert "truncated_mean <= eps sqrt(2/pi) sqrt(T)" in failed


def test_hh_suite_checks(small):
    wl = bw.HhSuite(seed=5)
    reports, half = wl.round()
    assert _failed(wl.checks((reports, half))) == set()

    moved = [dataclasses.replace(r, measured=_moved(r.measured)) for r in reports]
    failed = _failed(wl.checks((moved, half)))
    solid = {f for f in failed if "solid integral" in f}
    assert len(solid) == 3 * 3 + 3 * 3  # harmonic f on balls, polynomial f on boxes
    assert failed - solid <= {f"{bn} x {fn}: passes" for bn, fn, _b, _f in wl.pairs}

    moved = [dataclasses.replace(
        r, bound_value=r.bound_value + (10 * r.bound_stderr or 1e-9 * r.bound_value))
        for r in reports]
    failed = _failed(wl.checks((moved, half)))
    assert len({f for f in failed if "boundary integral" in f}) == 3 * 3

    ratio_se = half.details["ratio"] * math.hypot(
        half.measured.stderr / half.measured.mean, half.bound_stderr / half.bound_value)
    ratio = dict(half.details, ratio=half.details["ratio"] + 10 * ratio_se)
    failed = _failed(wl.checks((reports, dataclasses.replace(half, details=ratio))))
    assert failed == {"half-disk x height-affine: ratio = (pi/2 - 2/3)/(sqrt(pi/2) pi)"}

    disk = next(i for i, p in enumerate(wl.pairs) if p[:2] == ("unit-ball-n2", "constant"))
    bumped = list(reports)
    bumped[disk] = dataclasses.replace(
        reports[disk], details=dict(reports[disk].details,
                                    ratio=reports[disk].details["ratio"] * (1 + 1e-9)))
    assert _failed(wl.checks((bumped, half))) == {"unit-ball-n2 x constant: ratio = 1/(2 sqrt pi)"}