"""Geometry oracles: membership, distances, volumes, areas, sampling."""

import itertools
import json
import math

import numpy as np
import pytest

from torsion_bound import convex_geometry as cg
from torsion_bound import hh_verifier as hh
from torsion_bound import presets
from torsion_bound import rng
from torsion_bound.estimates import WosConfig

import oracles

CFG = WosConfig(samples=200_000, seed=1)


def half_disk():
    return cg.Intersection([
        cg.Ball([0.0, 0.0], 1.0),
        cg.Polytope([(np.array([0.0, -1.0]), 0.0)], require_bounded=False),
    ])


def half_space(normal, offset=0.0):
    """The unbounded {a . x <= offset}, as a half-ball's cut."""
    return cg.Polytope([(np.array(normal), offset)], require_bounded=False)


def unit_simplex(n):
    halves = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        halves.append((e, 0.0))
    halves.append((np.full(n, 1.0 / math.sqrt(n)), 1.0 / math.sqrt(n)))
    return cg.Polytope(halves)


class TestContains:
    def test_ball_interior(self):
        assert cg.contains(cg.Ball([0, 0], 1.0), [0.5, 0.0])

    def test_box_outside(self):
        assert not cg.contains(cg.Box([0, 0], [1, 1]), [1.5, 0.5])

    def test_half_disk_below_diameter(self):
        assert not cg.contains(half_disk(), [0.0, -0.1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cg.contains(cg.Ball([0, 0], 1.0), [0.1, 0.2, 0.3])


class TestDistance:
    def test_ball_n3(self):
        b = cg.Ball([0, 0, 0], 1.0)
        assert cg.distance_to_boundary(b, [0.5, 0, 0]) == pytest.approx(0.5)

    def test_box_nearest_face(self):
        b = cg.Box([0, 0], [2, 1])
        assert cg.distance_to_boundary(b, [1, 0.25]) == pytest.approx(0.25)

    def test_half_disk(self):
        d = cg.distance_to_boundary(half_disk(), [0.0, 0.3])
        assert d == pytest.approx(0.3)
        # independent ray-casting oracle
        oracle = oracles.ray_distance(half_disk(), np.array([0.0, 0.3]))
        assert d <= oracle + 1e-9
        assert d >= oracle - 1e-3  # oracle is upper-biased by angular gaps

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            cg.distance_to_boundary(cg.Ball([0, 0], 1.0), [2.0, 0.0])

    def test_one_polytope_point_is_one_row(self, monkeypatch):
        # a single point is doubled for gemm below distances_many, so a
        # wrapper of the class attribute (the benchmark tracer is one)
        # counts the caller's one row, in one call
        body = presets.simplex(3)
        rows = []
        inner = cg.Polytope.distances_many

        def counted(self, points):
            rows.append(len(points))
            return inner(self, points)
        monkeypatch.setattr(cg.Polytope, "distances_many", counted)
        d = cg.distance_to_boundary(body, [0.1, 0.2, 0.3])
        assert rows == [1]
        assert d == body.distances_many(np.array([[0.1, 0.2, 0.3]] * 3))[0]

    def test_ellipsoid_lower_bound_and_refinement(self):
        e = cg.Ellipsoid([0.0, 0.0], [2.0, math.sqrt(2.0)])
        # exact at the center
        assert cg.distance_to_boundary(e, [0, 0]) == pytest.approx(math.sqrt(2.0))
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 0],
                                                                dtype=np.uint64)))
        for _ in range(20):
            p = gen.uniform(-1, 1, size=2) * np.array([2.0, math.sqrt(2.0)])
            if not cg.contains(e, p):
                continue
            lb = cg.distance_to_boundary(e, p)
            exact = oracles.ellipsoid_distance_mp(e, p)
            oracle = oracles.ray_distance(e, p, n_dirs=8192)
            assert lb <= exact + 1e-12
            assert exact == pytest.approx(oracle, abs=2e-4)


def random_ellipsoid(gen, n):
    return cg.Ellipsoid(gen.uniform(-1.0, 1.0, n),
                        np.exp(gen.uniform(-2.0, 2.0, n)))


def quadratic_form(body, points):
    z = (points - body.center) / body.semi_axes
    return np.einsum("ij,ij->i", z, z)


def axis_bound(body, points):
    """b_min (1 - sqrt(q)): the distance bound the ellipsoid had before
    its second-order bound, and the one it keeps where q >= 1."""
    return body.semi_axes.min() * (1.0 - np.sqrt(quadratic_form(body, points)))


def rounding_slack(body):
    """n ulps of the body's scale.  Rounding y = x - c and q moves any
    bound of this kind by a few ulps: right at the boundary both the
    second-order bound and b_min (1 - sqrt(q)) overshoot the true distance
    by up to 0.14 of this slack."""
    scale = body.semi_axes.max() + np.abs(body.center).max()
    return body.dimension * np.finfo(float).eps * scale


def points_inside(body, gen, count, min_depth=1e-7):
    """Points at q = (1 - s)^2 with s log-uniform down to ``min_depth``."""
    n = body.dimension
    u = gen.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    s = 10.0 ** gen.uniform(math.log10(min_depth), 0.0, (count, 1))
    return body.center + body.semi_axes * u * (1.0 - s)


class TestEllipsoidDistance:
    """The closed-form certified distance of the Ellipsoid docstring."""

    def test_certified_against_high_precision(self):
        # 2400 points eps-deep along inward normals, eps / b_min
        # log-uniform in [1e-8, 1], on 400 random ellipsoids (n = 2..6,
        # log semi-axes in [-2, 2])
        gen = np.random.default_rng(20)
        checked = 0
        for _ in range(400):
            body = random_ellipsoid(gen, int(gen.integers(2, 7)))
            b, n = body.semi_axes, body.dimension
            u = gen.normal(size=(6, n))
            u /= np.linalg.norm(u, axis=1)[:, None]
            normal = -u / b
            normal /= np.linalg.norm(normal, axis=1)[:, None]
            depth = 10.0 ** gen.uniform(-8.0, 0.0, (6, 1)) * b.min()
            pts = body.center + b * u + depth * normal
            inside = body.contains_many(pts)
            pts, depth = pts[inside], depth[inside, 0]
            r = body.distances_many(pts)
            exact = np.array([oracles.ellipsoid_distance_mp(body, p)
                              for p in pts])
            slack = rounding_slack(body)
            assert np.all(r <= exact * (1.0 + 1e-9) + slack)
            # never below the axis bound, whose ratio to the true distance
            # is at least b_min / b_max
            floor = exact * b.min() / b.max() * (1.0 - 1e-9) - slack
            assert np.all(r >= floor)
            # tight within 1e-4 b_min of the boundary, where walks end
            near = depth <= 1e-4 * b.min()
            assert np.all(r[near] >= 0.9 * exact[near])
            checked += len(pts)
        assert checked >= 2000

    def test_at_least_the_axis_bound(self):
        gen = np.random.default_rng(21)
        for _ in range(100):
            body = random_ellipsoid(gen, int(gen.integers(2, 7)))
            b_min, slack = body.semi_axes.min(), rounding_slack(body)
            pts = points_inside(body, gen, 200, min_depth=1e-9)
            assert np.all(body.distances_many(pts) >= axis_bound(body, pts))
            # equal at the center (exactly) and along the shortest axis
            assert body.distances_many(body.center[None, :])[0] == b_min
            axis = np.tile(body.center, (50, 1))
            axis[:, np.argmin(body.semi_axes)] += b_min * np.concatenate(
                [gen.uniform(-1.0, 1.0, 48), [0.0, 1.0 - 1e-12]])
            assert np.allclose(body.distances_many(axis),
                               axis_bound(body, axis), rtol=0.0, atol=slack)

    def test_outside_keeps_the_axis_bound(self):
        gen = np.random.default_rng(22)
        for _ in range(100):
            body = random_ellipsoid(gen, int(gen.integers(2, 7)))
            n = body.dimension
            u = gen.normal(size=(200, n))
            u /= np.linalg.norm(u, axis=1)[:, None]
            scale = np.concatenate([[1.0], gen.uniform(1.0, 3.0, 199)])
            pts = body.center + body.semi_axes * u * scale[:, None]
            # the axis tips, where q rounds to 1 or to either side of it
            tips = body.center + np.diag(body.semi_axes)
            pts = np.vstack([pts, tips, 2.0 * body.center - tips])
            with np.errstate(all="raise"):
                r = body.distances_many(pts)
            assert np.all(np.isfinite(r))
            outside = quadratic_form(body, pts) >= 1.0
            assert outside.sum() >= 199
            assert np.array_equal(r[outside], axis_bound(body, pts[outside]))

    @pytest.mark.parametrize("body", [presets.beck_ellipsoid(4),
                                      cg.Ellipsoid([0.5, -1.0], [30.0, 1.0])],
                             ids=["beck-ellipsoid-n4", "ellipse-1-30"])
    def test_concave_and_1_lipschitz(self, body):
        gen = np.random.default_rng(23)
        slack = rounding_slack(body)
        a = points_inside(body, gen, 20_000)
        far = points_inside(body, gen, 20_000)
        # close pairs probe the gradient, mostly near the boundary
        close = a + 1e-6 * body.semi_axes.min() * gen.normal(size=a.shape)
        close = np.where(body.contains_many(close)[:, None], close, a)
        ra = body.distances_many(a)
        for other in (far, close):
            ro = body.distances_many(other)
            mid = body.distances_many(0.5 * (a + other))
            assert np.all(mid >= 0.5 * (ra + ro) - slack)
            step = np.linalg.norm(a - other, axis=1)
            assert np.all(np.abs(ra - ro) <= step * (1.0 + 1e-9) + slack)


# Boxes and polytopes reduce along the long axis; these bodies check the
# result against the row-by-row formulas bit for bit, and membership (the
# sign of the distance) against the defining inequalities.
ROW_FORMULA_BODIES = {
    "box-n2": lambda: cg.Box([-1.0, -0.5], [2.0, 0.5]),
    "box-n3": lambda: cg.Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
    "box-n6": lambda: cg.Box(-0.3 * np.arange(1, 7), 0.7 * np.arange(1, 7)),
    **{f"simplex-n{n}": (lambda n=n: presets.simplex(n)) for n in range(2, 7)},
    "random-polytope-n3": lambda: presets.body_preset("random-polytope-n3"),
    "polytope-13-n4": lambda: presets.random_polytope(4, 13, seed=5),
    "polytope-40-n4": lambda: presets.random_polytope(4, 40, seed=6),
    "half-disk": half_disk,
    "ball-n3": lambda: cg.Ball([0.5, -1.0, 2.0], 1.5),
    "ellipsoid-n3": lambda: cg.Ellipsoid([0.5, -1.0, 2.0], [3.0, 0.4, 1.0]),
}


def is_flat(body):
    return isinstance(body, (cg.Box, cg.Polytope))


class TestLongAxisReductions:
    @pytest.mark.parametrize("name", sorted(ROW_FORMULA_BODIES))
    def test_equal_to_row_formulas(self, name):
        body = ROW_FORMULA_BODIES[name]()
        lo, hi = body.bounding_box()
        x0 = body.interior_point()
        for count in (1, 2, 7, 1500):
            u = rng.uniforms(61, np.arange(count, dtype=np.uint64), 0,
                             body.dimension)
            # the bounding box grown by 20% on each side, every other
            # point pulled towards the interior: points inside and out
            pull = np.where(np.arange(count) % 2, 0.1, 1.0)[:, None]
            pts = x0 + pull * (lo + (1.4 * u - 0.2) * (hi - lo) - x0)
            dist = body.distances_many(pts)
            inside = body.contains_many(pts)
            assert np.array_equal(dist, oracles.distances_rows(body, pts))
            # within an ulp of a curved boundary the inequality and the
            # distance may round apart
            clear = (np.ones(count, dtype=bool) if is_flat(body)
                     else np.abs(dist) > 1e-12 * body.diameter)
            assert np.array_equal(inside[clear],
                                  oracles.contains_rows(body, pts)[clear])
        assert 0 < inside.sum() < count


def oblique_half_ball(n):
    """A ball off the origin cut by a plane along no axis, the half-space
    member first."""
    body = half_space_cut(0.1 * np.arange(n), 1.25, np.ones(n), 0.3)
    return cg.Intersection(body.members[::-1])


LAYOUT_BODIES = {
    "ball": lambda n: cg.Ball(0.3 * np.arange(n) - 0.5, 1.25),
    "ellipsoid": lambda n: random_ellipsoid(np.random.default_rng(n), n),
    "box": lambda n: cg.Box(-0.2 * np.arange(1, n + 1), 0.5 * np.arange(1, n + 1)),
    "polytope": lambda n: presets.random_polytope(n, 2 * n + 3, seed=n),
    "half-ball": presets.half_ball,
    "intersection": oblique_half_ball,
}


class TestDistanceLayouts:
    """A walk holds its positions coordinate-major and passes their (k, n)
    transpose: each row's distance must be the same bits in any memory
    layout, alone, and in any subset of rows."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("family", sorted(LAYOUT_BODIES))
    def test_rows_independent_of_layout(self, family, n):
        body = LAYOUT_BODIES[family](n)
        lo, hi = body.bounding_box()
        x0 = body.interior_point()
        u = rng.uniforms(67, np.arange(301, dtype=np.uint64), 0, n)
        # the bounding box grown by 20% on each side, every other point
        # pulled towards the interior: points inside and out
        pull = np.where(np.arange(301) % 2, 0.1, 1.0)[:, None]
        rows = np.ascontiguousarray(
            x0 + pull * (lo + (1.4 * u - 0.2) * (hi - lo) - x0))
        ref = body.distances_many(rows)
        assert 0 < (ref >= 0.0).sum() < len(rows)
        coords = np.ascontiguousarray(rows.T)
        assert coords.T.flags.f_contiguous
        assert np.array_equal(body.distances_many(coords.T), ref)
        alone = [body.distances_many(rows[i:i + 1]) for i in range(len(rows))]
        assert all(d.shape == (1,) for d in alone)
        assert np.array_equal(np.concatenate(alone), ref)
        for i in (0, 150, 300):
            assert np.array_equal(body.distances_many(coords[:, i:i + 1].T),
                                  ref[i:i + 1])
        order = np.random.default_rng(n).permutation(len(rows))
        for idx in (np.arange(0, 301, 3), order[:37], order[:2]):
            assert np.array_equal(body.distances_many(rows[idx]), ref[idx])
            assert np.array_equal(body.distances_many(coords.take(idx, axis=1).T),
                                  ref[idx])


def mc_volume(body, count, seed):
    """(mean, stderr) of the body's volume by uniform points of its
    bounding box, tested with ``contains_many``: a check of the closed
    forms against the membership oracle alone."""
    lo, hi = body.bounding_box()
    u = rng.uniforms(rng.derive(seed, 102),
                     np.arange(count, dtype=np.uint64), 0, body.dimension)
    hits = body.contains_many(lo + u * (hi - lo)) * float(np.prod(hi - lo))
    return float(hits.mean()), float(hits.std(ddof=1)) / math.sqrt(count)


class TestVolume:
    def test_ball_exact(self):
        est = cg.volume(cg.Ball([0, 0], 1.0), CFG)
        assert est.stderr == 0.0 and est.samples == 0
        assert est.mean == pytest.approx(math.pi)

    def test_ellipsoid_exact_and_mc_cross_check(self):
        e = cg.Ellipsoid([0.0, 0.0], [2.0, math.sqrt(2.0)])
        est = cg.volume(e, CFG)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(2.0 * math.sqrt(2.0) * math.pi)
        mean, se = mc_volume(e, CFG.samples, CFG.seed)
        assert abs(mean - est.mean) <= 4.0 * se

    def test_half_disk_exact(self):
        est = cg.volume(half_disk(), CFG)
        assert est.stderr == 0.0 and est.samples == 0
        assert est.mean == pytest.approx(math.pi / 2.0, rel=1e-15)
        mean, se = mc_volume(half_disk(), CFG.samples, CFG.seed)
        assert abs(mean - est.mean) <= 4.0 * se

    def test_polytope_mc_vs_lasserre(self):
        # the face (Lasserre) decomposition is exact; the Monte Carlo
        # cross-check runs in test_exact_vs_mc_volumes
        est = cg.volume(unit_simplex(3), CFG)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(1.0 / 6.0)


class TestSurfaceArea:
    def test_ball(self):
        assert cg.surface_area(cg.Ball([0, 0], 1.0), CFG).mean == pytest.approx(
            2.0 * math.pi)

    def test_box(self):
        assert cg.surface_area(cg.Box([0, 0], [1, 1]), CFG).mean == pytest.approx(4.0)

    def test_simplex_exact(self):
        s = unit_simplex(2)
        assert cg.surface_area(s, CFG).mean == pytest.approx(2.0 + math.sqrt(2.0))

    def test_half_disk(self):
        est = cg.surface_area(half_disk(), CFG)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(2.0 + math.pi, rel=1e-15)

    def test_ellipse_perimeter(self):
        # 4 a E(e) for the ellipse with semi-axes (2, sqrt(2))
        from scipy.special import ellipe

        exact = 8.0 * ellipe(0.5)
        est = cg.surface_area(cg.Ellipsoid([0, 0], [2.0, math.sqrt(2.0)]), CFG)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(exact, rel=1e-12)


class TestEllipsoidArea:
    """The closed-form ellipsoid area, to 1e-12 relative, with axis ratios
    up to 1e3."""

    RATIOS = (1.0, 1.0001, 1.7, 10.0, 1e3)

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_ellipse_against_ellipe(self, ratio):
        from scipy.special import ellipe

        for minor in (1e-3, 0.6, 2.5):
            major = ratio * minor
            exact = 4.0 * major * ellipe(1.0 - (minor / major) ** 2)
            for axes in ([major, minor], [minor, major]):
                body = cg.Ellipsoid([0.3, -1.0], axes)
                assert body.surface_area_exact() == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("ratio", RATIOS[1:])
    def test_spheroids(self, ratio):
        # two equal axes a and a third c: prolate (c > a) and oblate (c < a)
        a = 0.8
        c = ratio * a
        e = math.sqrt(1.0 - (a / c) ** 2)
        prolate = 2.0 * math.pi * a * a * (1.0 + c / (a * e) * math.asin(e))
        c = a / ratio
        e = math.sqrt(1.0 - (c / a) ** 2)
        oblate = 2.0 * math.pi * a * a * (1.0 + (1.0 - e * e) / e * math.atanh(e))
        for c, exact in ((ratio * a, prolate), (a / ratio, oblate)):
            for axes in ([a, a, c], [c, a, a]):
                body = cg.Ellipsoid(np.zeros(3), axes)
                assert body.surface_area_exact() == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_spheres(self, n):
        from torsion_bound import analytic_library as al

        for radius in (1e-3, 1.0, 7.3):
            body = cg.Ellipsoid(np.ones(n), np.full(n, radius))
            assert body.surface_area_exact() == pytest.approx(
                al.ball_surface_area(n, radius), rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_mp_quadrature(self, n):
        gen = np.random.default_rng(70 + n)
        cases = [presets.ellipsoid_semi_axes(n),
                 np.geomspace(1.0, 1e3, n),
                 np.r_[1e-3, np.ones(n - 1)],
                 10.0 ** gen.uniform(-1.5, 1.5, n)]
        for axes in cases:
            body = cg.Ellipsoid(np.zeros(n), axes)
            assert body.surface_area_exact() == pytest.approx(
                oracles.ellipsoid_area_mp(axes), rel=1e-12), axes

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_boundary_weights_average_to_the_area(self, n):
        # the sampler's surface Jacobian, averaged over 200k directions
        gen = np.random.default_rng(n)
        body = cg.Ellipsoid(np.zeros(n), 10.0 ** gen.uniform(-1.0, 1.0, n))
        _pos, _nrm, wgt, ok = body._boundary_batch(
            41, np.arange(200_000, dtype=np.uint64))
        assert ok.all()
        se = float(np.std(wgt, ddof=1)) / math.sqrt(len(wgt))
        assert abs(float(np.mean(wgt)) - body.surface_area_exact()) <= 4.0 * se

    def test_exact_and_cached(self):
        body = presets.beck_ellipsoid(4)
        est = cg.surface_area(body, CFG)
        assert est.stderr == 0.0 and est.samples == 0
        assert est.mean == pytest.approx(250.869026, rel=1e-8)
        assert "_area" in vars(body)


def square_pyramid():
    """Base [-1, 1]^2 x {0}, apex (0, 0, 1): the apex lies on 4 facets."""
    r = 1.0 / math.sqrt(2.0)
    sides = [(np.array([sx * r, sy * r, r]), r)
             for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    return cg.Polytope([(np.array([0.0, 0.0, -1.0]), 0.0)] + sides)


def cube_with_redundant_constraints():
    """[0, 1]^3 plus x + y <= 2 (meets the cube only along an edge) and
    z <= 5 (meets it nowhere)."""
    halves = [(sign * np.eye(3)[k], 1.0 if sign > 0 else 0.0)
              for k in range(3) for sign in (-1.0, 1.0)]
    halves.append((np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), math.sqrt(2.0)))
    halves.append((np.eye(3)[2], 5.0))
    return cg.Polytope(halves)


def cube_with_cut(n):
    """[0, 1]^n plus x1 + x2 <= 2, which meets the cube only along the
    (n-2)-face x1 = x2 = 1: that face has 2^(n-2) >= n vertices for
    n >= 4."""
    halves = [(sign * np.eye(n)[k], 1.0 if sign > 0 else 0.0)
              for k in range(n) for sign in (-1.0, 1.0)]
    a = np.zeros(n)
    a[:2] = 1.0 / math.sqrt(2.0)
    return cg.Polytope(halves + [(a, math.sqrt(2.0))])


def cross_polytope(n):
    """{x : sum |x_i| <= 1}: every vertex lies on 2^(n-1) facets."""
    return cg.Polytope([(np.array(signs) / math.sqrt(n), 1.0 / math.sqrt(n))
                        for signs in itertools.product((-1.0, 1.0), repeat=n)])


def translated(poly, shift):
    return cg.Polytope([(a, ci + a @ shift) for a, ci in zip(poly.A, poly.c)])


def rotated_box(thickness):
    """A 1 x 1 x thickness box in a fixed random orientation."""
    rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    halves = []
    for k, width in enumerate((1.0, 1.0, thickness)):
        halves += [(-rot[:, k], 0.0), (rot[:, k], width)]
    return cg.Polytope(halves)


def square_with_cut_corner(depth=1e-9):
    """[0, 1]^2 cut by x + y <= 2 - depth: the cut is an edge of length
    sqrt(2) depth, and its ends lie depth from the unit sides."""
    halves = [(sign * np.eye(2)[k], 1.0 if sign > 0 else 0.0)
              for k in range(2) for sign in (-1.0, 1.0)]
    r = 1.0 / math.sqrt(2.0)
    return cg.Polytope(halves + [(np.array([r, r]), (2.0 - depth) * r)])


def hull(poly):
    """scipy's convex hull of the polytope's vertices."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    halves = np.hstack([poly.A, -poly.c[:, None]])
    return ConvexHull(HalfspaceIntersection(halves, poly.interior_point())
                      .intersections)


def scale_of(poly):
    lo, hi = poly.bounding_box()
    return max(1.0, float(np.linalg.norm(hi - lo)))


class TestFaceTables:
    """Polytope face tables from the vertices against the linear-program
    reference (oracles.lp_face_table) and scipy's hull volume."""

    @staticmethod
    def assert_matches_lp(poly):
        ref = oracles.lp_face_table(poly)
        assert [f.index for f in poly.faces] == [i for i, _a in ref]
        for face, (_i, area) in zip(poly.faces, ref):
            assert abs(face.area - area) <= 1e-13 * area

    @staticmethod
    def assert_matches_hull(poly, h=None):
        h = hull(poly) if h is None else h
        assert abs(poly.volume_exact() - h.volume) <= 1e-12 * h.volume
        assert abs(poly.surface_area_exact() - h.area) <= 1e-12 * h.area

    @pytest.mark.parametrize("body", [
        pytest.param(square_pyramid, id="square-pyramid"),
        pytest.param(lambda: presets.simplex(2), id="simplex-n2"),
        pytest.param(lambda: presets.simplex(5), id="simplex-n5"),
        pytest.param(lambda: presets.body_preset("random-polytope-n3"),
                     id="random-polytope-n3"),
        pytest.param(lambda: presets.random_polytope(4, 14, 2),
                     id="random-polytope-n4-14"),
        pytest.param(lambda: presets.random_polytope(4, 40, 1),
                     id="random-polytope-n4-40"),
    ])
    def test_equal_to_lp_reference_and_hull(self, body):
        poly = body()
        self.assert_matches_lp(poly)
        self.assert_matches_hull(poly)

    def test_square_pyramid_closed_forms(self):
        poly = square_pyramid()
        assert len(poly.faces) == 5
        assert poly.volume_exact() == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert poly.surface_area_exact() == pytest.approx(
            4.0 + 4.0 * math.sqrt(2.0), rel=1e-14)

    def test_redundant_constraints_have_no_face(self):
        # the linear programs measured the faces x = 1 and y = 1 at 1.25:
        # inside each, x + y <= 2 and the other unit constraint bound the
        # same edge, which they counted twice
        poly = cube_with_redundant_constraints()
        assert [f.index for f in poly.faces] == list(range(6))
        assert [f.area for f in poly.faces] == pytest.approx([1.0] * 6,
                                                             rel=1e-14)
        self.assert_matches_hull(poly)
        # a constraint given twice bounds one face
        twice = cg.Polytope(list(zip(poly.A[:6], poly.c[:6]))
                            + [(poly.A[1], poly.c[1])])
        assert [f.index for f in twice.faces] == list(range(6))
        self.assert_matches_hull(twice)

    def test_corner_cut_1e_9_deep(self):
        # the LPs put the end of x = 1 at y = 1: HiGHS stops within its
        # feasibility tolerance (1e-7) of the cut y <= 1 - 1e-9
        poly = square_with_cut_corner(1e-9)
        # every edge is sampled as the segment between its two vertices
        ends = [f.sampler.vertices[np.lexsort(f.sampler.vertices.T[::-1])]
                for f in poly.faces]
        assert [f.index for f in poly.faces] == list(range(5))
        assert ends[1] == pytest.approx(np.array([[1.0, 0.0], [1.0, 1.0 - 1e-9]]),
                                        rel=1e-15, abs=0.0)
        assert ends[3] == pytest.approx(np.array([[0.0, 1.0], [1.0 - 1e-9, 1.0]]),
                                        rel=1e-15, abs=0.0)
        areas = [1.0, 1.0 - 1e-9, 1.0, 1.0 - 1e-9, math.sqrt(2.0) * 1e-9]
        assert [f.area for f in poly.faces] == pytest.approx(areas, rel=1e-6)
        for face, area in zip(poly.faces[:4], areas):
            assert abs(face.area - area) <= 1e-15
        self.assert_matches_hull(poly)

    @pytest.mark.parametrize("n", [4, 5])
    def test_constraint_touching_a_lower_face(self, n):
        # x1 + x2 <= 2 holds the vertices of an (n-2)-face, and inside it
        # x3 >= 0 holds those of an (n-3)-face that is also a ridge of the
        # cube: measured under one key, n = 5 listed a face of area 0.75
        poly = cube_with_cut(n)
        assert [f.index for f in poly.faces] == list(range(2 * n))
        assert [f.area for f in poly.faces] == pytest.approx([1.0] * (2 * n),
                                                             rel=1e-14)
        self.assert_matches_hull(poly)
        assert poly.volume_exact() == pytest.approx(1.0, rel=1e-14)

    def test_lower_face_is_not_a_facet(self):
        # the area of a lower face's vertex set is rounding noise of either
        # sign: the facet list must not hang on that sign
        from scipy.spatial import HalfspaceIntersection

        poly = cube_with_cut(5)
        vertices = HalfspaceIntersection(np.hstack([poly.A, -poly.c[:, None]]),
                                         poly.interior_point()).intersections
        on = np.abs(vertices @ poly.A.T - poly.c) <= 1e-12
        ids = np.arange(len(vertices))
        facets = [j for j, *_ in cg._facets(on, ids, 5, maximal=True)]
        assert facets == list(range(10))
        assert [j for j, *_ in cg._facets(on, ids, 5)] == list(range(11))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cross_polytope(self, n):
        # the linear programs measured the 4-D facets at twice their area
        poly = cross_polytope(n)
        facet = math.sqrt(n) / math.factorial(n - 1)
        assert [f.area for f in poly.faces] == pytest.approx(
            [facet] * 2 ** n, rel=1e-14)
        assert poly.volume_exact() == pytest.approx(
            2.0 ** n / math.factorial(n), rel=1e-14)
        self.assert_matches_hull(poly)

    @pytest.mark.parametrize("body", [
        pytest.param(lambda: presets.simplex(3), id="simplex-n3"),
        pytest.param(lambda: presets.body_preset("random-polytope-n3"),
                     id="random-polytope-n3"),
    ])
    def test_translated_far_from_the_origin(self, body):
        # vertices 1e4 from the origin round at 1e4 x eps = 2e-12, more
        # than 1e-13 x scale: the incidence test must allow for it
        near = body()
        shift = np.full(3, 1e4)
        far = translated(near, shift)
        rel = 1e-14 * 1e4  # eps x coordinates / scale, with room
        tol = rel * scale_of(near)
        assert [f.index for f in far.faces] == [f.index for f in near.faces]
        ids = np.arange(200, dtype=np.uint64)
        for i, (f, g) in enumerate(zip(far.faces, near.faces)):
            assert abs(f.area - g.area) <= rel * g.area
            # the same draws on each face, moved by the shift
            moved = far._stratum(i, 7)(ids)[0] - shift
            assert np.all(np.abs(moved - near._stratum(i, 7)(ids)[0]) <= tol)
        assert far.volume_exact() == pytest.approx(near.volume_exact(),
                                                   rel=rel)
        assert far.volume_exact() == pytest.approx(hull(far).volume, rel=rel)

    def test_qhull_failure_is_a_value_error(self, monkeypatch):
        from scipy.spatial import QhullError

        def fail(*_args):
            raise QhullError("QH6271 qhull precision error")
        monkeypatch.setattr(cg, "HalfspaceIntersection", fail)
        with pytest.raises(ValueError, match="qhull"):
            presets.simplex(3).faces

    @pytest.mark.parametrize("thickness", [1e-6, 1e-11, 2.1e-12])
    def test_thin_rotated_box(self, thickness):
        # qhull places vertices to about 1e-16 of the scale, so areas and
        # volume lose digits as scale / thickness grows.  2.1e-12 is just
        # above the constructor's limit (2e-12 is rejected); its side faces
        # fell below the former size threshold of 1e-12 x scale^2
        poly = rotated_box(thickness)
        areas = [thickness] * 4 + [1.0, 1.0]
        rel = 1e-14 / thickness
        assert [f.index for f in poly.faces] == list(range(6))
        assert [f.area for f in poly.faces] == pytest.approx(areas, rel=rel)
        assert poly.volume_exact() == pytest.approx(thickness, rel=rel)

    def test_complement_is_an_orthonormal_chart(self):
        # every face chart: orthonormal columns orthogonal to the normal
        gen = np.random.default_rng(8)
        tol = 4.0 * np.finfo(float).eps
        for n in range(2, 9):
            tied = np.ones(n)
            tied[1] = -1.0  # the largest |a_k| is tied, with either sign
            units = [v / np.linalg.norm(v) for v in gen.normal(size=(50, n))]
            for a in units + [tied / math.sqrt(n), np.ones(n) / math.sqrt(n)]:
                Q = cg._complement(a)
                assert Q.shape == (n, n - 1)
                assert np.abs(Q.T @ Q - np.eye(n - 1)).max() <= tol
                assert np.abs(a @ Q).max() <= tol
            for k in range(n):
                for sign in (1.0, -1.0):
                    a = sign * np.eye(n)[k]
                    Q = cg._complement(a)
                    assert np.array_equal(Q.T @ Q, np.eye(n - 1))
                    assert not (a @ Q).any()

    def test_thin_box_limit(self):
        with pytest.raises(ValueError, match="empty interior"):
            rotated_box(2e-12)

    def test_six_dimensions_sixty_faces(self):
        from scipy.spatial import ConvexHull

        poly = presets.random_polytope(6, 60, 1)
        h = hull(poly)
        self.assert_matches_hull(poly, h)
        for face in poly.faces:
            # the face's own hull in a chart of its hyperplane
            level = h.points @ face.normal - face.offset
            chart = h.points[np.abs(level) <= 1e-9] @ cg._complement(face.normal)
            assert abs(face.area - ConvexHull(chart).volume) <= 1e-12 * face.area

    def test_tables_call_no_linear_programs(self, monkeypatch):
        # only a constructor solves LPs: 2n for the bounding box (which
        # validates boundedness) and one for the Chebyshev centre
        linprog, init = cg.linprog, cg.Polytope.__init__
        calls = {"constructor": 0, "elsewhere": 0}
        building = []

        def counted(*args, **kwargs):
            calls["constructor" if building else "elsewhere"] += 1
            return linprog(*args, **kwargs)

        def constructor(self, *args, **kwargs):
            before = calls["constructor"]
            building.append(self)
            try:
                init(self, *args, **kwargs)
            finally:
                building.pop()
            assert calls["constructor"] - before <= 2 * self.dimension + 1

        monkeypatch.setattr(cg, "linprog", counted)
        monkeypatch.setattr(cg.Polytope, "__init__", constructor)
        bodies = [presets.simplex(4), presets.body_preset("random-polytope-n3")]
        built = dict(calls)
        for body in bodies:
            body.faces, body._face_cum
        assert calls == built


def boundary_key(seed):
    # operation tag 101 keeps the samples these checks were written against
    return rng.derive(seed, 101)


class TestBoundarySampling:
    def test_ball_on_sphere(self):
        pos, _nrm, _w = cg.Ball([0, 0], 1.0).boundary_arrays(500, boundary_key(9))
        radii = np.linalg.norm(pos, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_box_face_fractions(self):
        pos, _nrm, _w = cg.Box([0, 0], [1, 1]).boundary_arrays(
            40_000, boundary_key(2))
        for k, side in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
            frac = np.mean(np.isclose(pos[:, k], side))
            se = math.sqrt(0.25 * 0.75 / len(pos))
            assert abs(frac - 0.25) <= 3.0 * se

    def test_half_disk_flat_fraction(self):
        pos, _nrm, _w = half_disk().boundary_arrays(40_000, boundary_key(3))
        frac = np.mean(np.abs(pos[:, 1]) < 1e-12)
        expect = 2.0 / (2.0 + math.pi)
        se = math.sqrt(expect * (1.0 - expect) / len(pos))
        assert abs(frac - expect) <= 3.0 * se

    def test_positions_on_boundary_and_normals_inward(self):
        bodies = [cg.Ball([0, 0, 0], 2.0),
                  cg.Box([0, 0], [2, 1]),
                  cg.Ellipsoid([1.0, 0.0], [2.0, 1.0]),
                  unit_simplex(3),
                  half_disk(),
                  oblique_half_ball(3)]
        for body in bodies:
            pos, nrm, _w = body.boundary_arrays(400, key=11)
            assert np.max(np.abs(body.distances_many(pos))) <= 1e-9 * body.diameter
            assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-12)
            assert (body.distances_many(pos + 1e-9 * nrm) >= 0.0).all()
            assert (body.distances_many(pos - 1e-9 * nrm) < 0.0).all()

    def test_bit_identical_given_seed(self):
        body = half_disk()
        a = body.boundary_arrays(100, boundary_key(5))
        b = body.boundary_arrays(100, boundary_key(5))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            cg.Ball([0, 0], 1.0).boundary_arrays(0, boundary_key(1))

    AREAS = {"unit-box-n3": 6.0,
             "simplex-n3": 1.5 + math.sqrt(3.0) / 2.0,
             "simplex-n4": 4.0 / 6.0 + 2.0 / 6.0,
             "random-polytope-n3": None,  # scipy's hull area
             "half-disk": 2.0 + math.pi,
             "half-ball-n3": 3.0 * math.pi}

    @pytest.mark.parametrize("name", list(AREAS))
    def test_weights_integrate_the_surface_area(self, name):
        # E[weight * ok] over the candidates is the boundary measure; an
        # intersection's candidates weigh more than the area they land on,
        # as some fall outside the other members
        body = presets.body_preset(name)
        area = self.AREAS[name] or hull(body).area
        _pos, _nrm, wgt, ok = body._boundary_batch(
            41, np.arange(200_000, dtype=np.uint64))
        vals = wgt * ok
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        # a box's weights are all equal, so its stderr is rounding noise
        assert abs(float(np.mean(vals)) - area) <= 4.0 * se + 1e-12 * area

    def test_one_whole_boundary_sampler(self):
        # boxes, polytopes and intersections draw their whole boundary as
        # the mixture of their strata; only bodies without strata have
        # their own sampler
        bodies = [cls for cls in vars(cg).values()
                  if isinstance(cls, type) and issubclass(cls, cg.ConvexBody)]
        own = {cls for cls in bodies if "_boundary_batch" in vars(cls)}
        assert own == {cg.ConvexBody, cg.Ball, cg.Ellipsoid}
        assert {cls for cls in bodies if "_strata" in vars(cls)} \
            == {cg.ConvexBody, cg.Box, cg.Polytope, cg.Intersection}

    @pytest.mark.parametrize("name", ["unit-ball-n3", "unit-box-n3",
                                      "beck-ellipsoid-n3", "random-polytope-n3",
                                      "simplex-n3", "half-disk"])
    def test_samples_independent_of_batch_size(self, name, monkeypatch):
        # a polytope face maps a lone chart row by gemv, which rounds
        # unlike gemm, unless the chart map doubles it
        body = presets.body_preset(name)
        boundary = body.boundary_arrays(1000, 17)
        interior = cg.interior_points(body, 1000, 18)
        for batch in (1, 7, 4096):
            monkeypatch.setattr(cg, "_BATCH", batch)
            again = body.boundary_arrays(1000, 17)
            assert all(np.array_equal(x, y) for x, y in zip(boundary, again))
            assert np.array_equal(cg.interior_points(body, 1000, 18), interior)


class TestKeyedRejection:
    @staticmethod
    def every_third(ids):
        return ids.astype(float), 2.0 * ids, ids % 3 == 0

    def test_exact_count_in_id_order(self):
        for batch in (1, 4, 7, 100):
            got, twice = cg._keyed_rejection(self.every_third, 10, batch, 10**6,
                                             "starved")
            assert np.array_equal(got, 3.0 * np.arange(10))
            assert np.array_equal(twice, 2.0 * got)

    def test_starves_past_the_limit(self):
        def never(ids):
            return ids.astype(float), np.zeros(len(ids), dtype=bool)
        with pytest.raises(cg.SamplingStarved, match="^nothing accepted$"):
            cg._keyed_rejection(never, 1, 8, 40, "nothing accepted")


class TestStrata:
    """Each stratum gets exactly its _largest_remainder count, and every
    point lies on its stratum with the stratum's inward normal."""

    COUNTS = (5, 8, 40)

    @staticmethod
    def split(body, count):
        pos, nrm = body.stratified_boundary(count, rng.derive(count, 5))
        _tag, weights = body._strata()
        cnt = cg._largest_remainder(weights, count)
        assert cnt.sum() == count and len(pos) == len(nrm) == count
        ends = np.cumsum(cnt)
        return cnt, np.split(pos, ends[:-1]), np.split(nrm, ends[:-1])

    @pytest.mark.parametrize("count", COUNTS)
    def test_box_faces(self, count):
        body = presets.unit_box(2)
        cnt, pos, nrm = self.split(body, count)
        faces = [(k, side) for k in range(2) for side in (0.0, 1.0)]
        assert (cnt >= 1).all()
        for (k, side), p, v in zip(faces, pos, nrm):
            assert np.all(p[:, k] == side)
            assert np.all((p >= 0.0) & (p <= 1.0))
            normal = np.zeros(2)
            normal[k] = 1.0 if side == 0.0 else -1.0
            assert np.all(v == normal)

    @pytest.mark.parametrize("count", COUNTS)
    def test_simplex_faces(self, count):
        body = presets.simplex(3)
        cnt, pos, nrm = self.split(body, count)
        assert len(body.faces) == 4 and (cnt >= 1).all()
        for face, p, v in zip(body.faces, pos, nrm):
            level = p @ body.A.T - body.c
            assert np.all(np.abs(level[:, face.index]) <= 1e-12)
            assert np.all(level <= 1e-12)
            assert np.all(v == -body.A[face.index])

    @pytest.mark.parametrize("count", COUNTS)
    def test_half_disk_arc_and_flat_side(self, count):
        body = presets.half_ball(2)
        cnt, (arc, flat), (arc_nrm, flat_nrm) = self.split(body, count)
        assert (cnt >= 1).all()
        assert np.all(np.abs(np.linalg.norm(arc, axis=1) - 1.0) <= 1e-12)
        assert np.all(arc[:, 1] >= 0.0)
        assert np.allclose(arc_nrm, -arc, atol=1e-12)
        assert np.all(flat[:, 1] == 0.0) and np.all(np.abs(flat[:, 0]) <= 1.0)
        assert np.all(flat_nrm == [0.0, 1.0])


def simplex_vertices(n, scale=1.0):
    return np.vstack([np.zeros(n), scale * np.eye(n)])


def on_face(vertices, face):
    return vertices[np.abs(vertices @ face.normal - face.offset) <= 1e-12]


# faces of random-polytope-n3 as enumerated before the cone samplers
# replaced chart-box rejection
RANDOM_POLYTOPE_N3_AREAS = [
    2.635608593169099, 7.215979353972582, 5.972746538940096,
    2.2370120434292846, 2.5652008265837494, 2.504204772541121,
    2.4322077294741424, 3.1489070237984045]


class TestExactSamplers:
    """Interiors of balls, ellipsoids, boxes and polytopes, and polytope
    faces, are drawn exactly: their moments match closed forms, and each
    returned point takes one candidate."""

    SAMPLES = 200_000
    Z = 5.0  # every moment below is checked at 5 standard errors

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unit_ball_points_key_once(self, n):
        # bit for bit the earlier draw, which keyed every id twice
        ids = np.arange(1000, 51_000, dtype=np.uint64)
        for key in (0, 17, rng.derive(5, 2)):
            assert np.array_equal(
                cg._unit_ball_points(key, ids, n),
                oracles.unit_ball_points_two_keys(key, ids, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_interior_moments(self, n):
        body = presets.simplex(n, scale=1.5)
        pts = cg.interior_points(body, self.SAMPLES, 3)
        _vol, mean, second = oracles.simplex_moments(simplex_vertices(n, 1.5))
        assert mean == pytest.approx(np.full(n, 1.5 / (n + 1)), rel=1e-14)
        assert oracles.moment_errors(pts, mean, second).max() <= self.Z

    @pytest.mark.parametrize("n", [3, 4])
    def test_simplex_face_moments(self, n):
        body = presets.simplex(n)
        vertices = simplex_vertices(n)
        ids = np.arange(self.SAMPLES // 4, dtype=np.uint64)
        for i, face in enumerate(body.faces):
            pos, nrm, wgt, ok = body._stratum(i, rng.derive(4, i))(ids)
            assert ok.all() and np.all(wgt == face.area)
            assert np.all(nrm == -face.normal)
            corners = on_face(vertices, face)
            assert len(corners) == n
            area, mean, second = oracles.simplex_moments(corners)
            assert face.area == pytest.approx(area, rel=1e-13)
            assert oracles.moment_errors(pos, mean, second).max() <= self.Z

    def test_random_polytope_interior_moments(self):
        # its faces are polygons: the draw picks a cone by height x area,
        # then a cone of the polygon, then a point of an edge
        body = presets.body_preset("random-polytope-n3")
        assert isinstance(body._lattice[1], cg._Cone)
        pts = cg.interior_points(body, self.SAMPLES, 5)
        mean, second = oracles.polytope_moments(hull(body).points)
        assert oracles.moment_errors(pts, mean, second).max() <= self.Z

    def test_random_polytope_face_moments(self):
        body = presets.body_preset("random-polytope-n3")
        vertices = hull(body).points
        ids = np.arange(self.SAMPLES // 4, dtype=np.uint64)
        for i, face in enumerate(body.faces):
            pos = body._stratum(i, rng.derive(6, i))(ids)[0]
            assert np.abs(pos @ body.A.T - body.c).max(axis=0)[face.index] <= 1e-12
            # the polygon's moments from a triangulation in its chart
            Q = cg._complement(face.normal)
            corners = on_face(vertices, face)
            p0 = face.offset * face.normal
            mean, second = oracles.polytope_moments((corners - p0) @ Q)
            assert oracles.moment_errors((pos - p0) @ Q, mean, second).max() \
                <= self.Z

    @pytest.mark.parametrize("body", [
        cg.Ball([0.5, -1.0], 2.0), cg.Ball([0.0, 1.0, 2.0], 0.5),
        presets.unit_ball(5), presets.beck_ellipsoid(2),
        cg.Ellipsoid([1.0, 0.0, -1.0], [0.5, 2.0, 1.0]), presets.beck_ellipsoid(4),
    ], ids=["ball-n2", "ball-n3", "ball-n5", "ellipsoid-n2", "ellipsoid-n3",
            "ellipsoid-n4"])
    def test_ball_and_ellipsoid_interior_moments(self, body):
        # y = (x - c) / R is uniform on the unit ball: E y = 0 and
        # E y y^T = I / (n + 2), so E |y|^2 = n / (n + 2)
        n = body.dimension
        scale = body.radius if isinstance(body, cg.Ball) else body.semi_axes
        y = (cg.interior_points(body, self.SAMPLES, 8) - body.center) / scale
        assert np.all(np.einsum("ij,ij->i", y, y) <= 1.0 + 1e-12)
        assert oracles.moment_errors(y, np.zeros(n), np.eye(n) / (n + 2)).max() \
            <= self.Z
        sq = np.einsum("ij,ij->i", y, y)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - n / (n + 2)) <= self.Z * se

    def test_box_interior_is_the_former_rejection_draw(self):
        # lo + u (hi - lo) on the key and slots of the bounding-box draw,
        # which a box accepted whole
        body = cg.Box([-1.0, 0.5, 2.0], [0.0, 3.0, 2.5])
        ids = np.arange(5000, dtype=np.uint64)
        expect = body.lower + rng.uniforms(12, ids, 0, 3) * (body.upper - body.lower)
        assert np.array_equal(cg.interior_points(body, 5000, 12), expect)

    @pytest.mark.parametrize("name", ["simplex-n2", "simplex-n3", "simplex-n4",
                                      "random-polytope-n3"])
    def test_lattice_volume_and_face_areas(self, name):
        # the volume is the interior node's measure, taken about the
        # vertex centroid; the faces' terms about the Chebyshev centre sum
        # to the same, and so does qhull's hull.  Simplex faces have the
        # oracle's area
        body = presets.body_preset(name)
        n = body.dimension
        vertices = hull(body).points
        x0 = body.interior_point()
        centre = sum((f.offset - f.normal @ x0) * f.area for f in body.faces) / n
        interior = body._lattice[1]
        assert body.volume_exact() == interior.measure
        assert body.volume_exact() == pytest.approx(centre, rel=1e-13)
        assert body.volume_exact() == pytest.approx(hull(body).volume,
                                                    rel=1e-12)
        if name.startswith("simplex"):
            assert isinstance(interior, cg._Simplex)
            assert body.volume_exact() == pytest.approx(1.0 / math.factorial(n),
                                                        rel=1e-13)
            for face in body.faces:
                area = oracles.simplex_moments(on_face(vertices, face))[0]
                assert face.area == pytest.approx(area, rel=1e-13)
        else:
            # the body's one lattice call built the faces' nodes, and the
            # interior cone over them
            assert all(node is f.sampler
                       for node, f in zip(interior.facets, body.faces))
            assert len(interior.facets) == len(body.faces)
            assert [f.area for f in body.faces] == pytest.approx(
                RANDOM_POLYTOPE_N3_AREAS, rel=1e-13)

    SAMPLED = ["unit-ball-n2", "unit-ball-n3", "unit-ball-n5", "beck-ellipsoid-n4",
               "unit-box-n3", "simplex-n4", "random-polytope-n3"]

    @pytest.mark.parametrize("name", SAMPLED)
    def test_one_candidate_per_point(self, name, monkeypatch):
        body = presets.body_preset(name)
        drawn = []
        interior = body._interior_batch

        def counted(key, ids):
            drawn.append(len(ids))
            return interior(key, ids)
        monkeypatch.setattr(body, "_interior_batch", counted)
        for count in (1, 512, 30_000):
            drawn.clear()
            assert len(cg.interior_points(body, count, 2)) == count
            assert sum(drawn) == count
        if isinstance(body, cg.Polytope):
            stratum = body._stratum

            def counted_stratum(index, key):
                draw = stratum(index, key)
                return lambda ids: (drawn.append(len(ids)), draw(ids))[1]
            monkeypatch.setattr(body, "_stratum", counted_stratum)
            for count in (5, 512, 30_000):
                drawn.clear()
                assert len(body.boundary_arrays(count, 3)[0]) == count
                assert sum(drawn) == count
                drawn.clear()
                assert len(body.stratified_boundary(count, 4)[0]) == count
                assert sum(drawn) == count

    @pytest.mark.parametrize("name", SAMPLED + ["half-disk", "half-ball-n3"])
    def test_one_point_is_the_first_of_many(self, name):
        body = presets.body_preset(name)
        many = cg.interior_points(body, 30_000, 9)
        assert np.array_equal(cg.interior_points(body, 1, 9), many[:1])
        assert body.contains_many(many).all()
        pos, nrm, wgt = body.boundary_arrays(30_000, 10)
        one = body.boundary_arrays(1, 10)
        assert all(np.array_equal(a, b[:1]) for a, b in zip(one, (pos, nrm, wgt)))


def half_space_cut(center, radius, normal, t):
    """The ball cut by {a . x <= a . center + t R}."""
    a = np.asarray(normal, dtype=float)
    a /= np.linalg.norm(a)
    center = np.asarray(center, dtype=float)
    return cg.Intersection([
        cg.Ball(center, radius),
        cg.Polytope([(a, float(a @ center) + t * radius)], require_bounded=False)])


class TestHalfBallClosedForms:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("t", [-0.9, -0.3, 0.0, 0.4, 0.99])
    def test_against_quadrature(self, n, t):
        gen = np.random.default_rng(100 * n + int(10 * t))
        radius = 1.7
        body = half_space_cut(gen.uniform(-1.0, 1.0, n), radius,
                              gen.normal(size=n), t)
        vol, area, _height = oracles.half_ball_measures_mp(n, radius, t)
        assert body.volume_exact() == pytest.approx(vol, rel=1e-13)
        assert body.surface_area_exact() == pytest.approx(area, rel=1e-13)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("t", [-0.9, -0.3, 0.0, 0.4, 0.99])
    def test_deepest_point(self, n, t):
        gen = np.random.default_rng(100 * n + int(10 * t))
        radius = 1.7
        body = half_space_cut(gen.uniform(-1.0, 1.0, n), radius,
                              gen.normal(size=n), t)
        ball, a, _t, _cap, _flat = body._half_ball
        tol = 1e-14 * (radius + float(np.abs(ball.center).max()))
        x0 = body.interior_point()
        assert body.inradius() == pytest.approx(0.5 * radius * (1.0 + t),
                                                rel=1e-14)
        assert abs(body.distances_many(x0[None, :])[0] - body.inradius()) <= tol
        # 10k interior points, drawn uniformly from a box around the kept
        # part in the frame (a, complement of a) and kept inside the body
        width = 1.0 if t >= 0.0 else math.sqrt(1.0 - t * t)
        frame = np.column_stack((a, cg._complement(a)))
        sample = []
        while sum(map(len, sample)) < 10_000:
            u = gen.uniform(-1.0, 1.0, size=(50_000, n))
            u[:, 0] = -1.0 + 0.5 * (u[:, 0] + 1.0) * (1.0 + t)
            u[:, 1:] *= width
            pts = ball.center + radius * u @ frame.T
            sample.append(pts[body.contains_many(pts)])
        depths = body.distances_many(np.concatenate(sample)[:10_000])
        assert depths.max() <= body.inradius() + tol

    @pytest.mark.parametrize("n", range(2, 7))
    def test_preset_deepest_point(self, n):
        body = presets.half_ball(n)
        assert body.inradius() == 0.5
        assert np.array_equal(body.interior_point(), [0.0] * (n - 1) + [0.5])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_half_ball(self, n):
        from torsion_bound import analytic_library as al

        body = presets.half_ball(n)
        omega = al.omega(n)
        flat = 2.0 if n == 2 else al.omega(n - 1)
        assert body.volume_exact() == pytest.approx(omega / 2.0, rel=1e-14)
        assert body.surface_area_exact() == pytest.approx(
            al.unit_sphere_area(n) / 2.0 + flat, rel=1e-14)

    @pytest.mark.parametrize("t", [1.0, 1.5, 40.0])
    def test_plane_missing_the_ball(self, t):
        from torsion_bound import analytic_library as al

        for n in (2, 3, 5):
            body = half_space_cut(np.zeros(n), 2.0, np.ones(n), t)
            with np.errstate(all="raise"):
                vol, area = body.volume_exact(), body.surface_area_exact()
            assert vol == pytest.approx(al.ball_volume(n, 2.0), rel=1e-14)
            assert area == pytest.approx(al.ball_surface_area(n, 2.0), rel=1e-14)


def boundary_height(body, pos):
    """s = a . (x - centre)/R of half-ball boundary points."""
    ball, a, _t, _cap, _flat = body._half_ball
    return (pos - ball.center) @ a / ball.radius


class TestHalfBallSampler:
    """The kept cap drawn as folded sphere points and the flat face as an
    (n-1)-ball, on a ball of random centre, radius and cut direction."""

    T = (-0.4, 0.0, 0.5)
    CANDIDATES = 200_000

    @staticmethod
    def body(n, t):
        gen = np.random.default_rng(10 * n + int(10 * t))
        return half_space_cut(gen.uniform(-1.0, 1.0, n), gen.uniform(0.5, 2.0),
                              gen.normal(size=n), t)

    def batch(self, body):
        return body._boundary_batch(41, np.arange(self.CANDIDATES,
                                                  dtype=np.uint64))

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("t", T)
    def test_weights_integrate_the_area(self, n, t):
        body = self.body(n, t)
        _pos, _nrm, wgt, ok = self.batch(body)
        # every candidate lands on the boundary unless the cap is the
        # smaller part, which only half of the folded draws reach
        assert ok.all() == (t >= 0.0)
        vals = wgt * ok
        area = body.surface_area_exact()
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        if t == 0.0:  # every weight is the area
            assert float(np.mean(vals)) == pytest.approx(area, rel=1e-12)
        else:
            assert se > 0.0
            assert abs(float(np.mean(vals)) - area) <= 4.0 * se

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("t", T)
    def test_height_moment(self, n, t):
        body = self.body(n, t)
        pos, _nrm, wgt, ok = self.batch(body)
        vals = wgt * ok * boundary_height(body, pos)
        _vol, _area, height = oracles.half_ball_measures_mp(
            n, body._half_ball[0].radius, t)
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - height) <= 4.0 * se + 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("t", T)
    def test_on_the_boundary_with_inward_normals(self, n, t):
        body = self.body(n, t)
        ball, a, _t, _cap, _flat = body._half_ball
        tol = 1e-12 * ball.radius
        for pos, nrm in (body.boundary_arrays(2000, 11)[:2],
                         body.stratified_boundary(2000, 12)):
            s = boundary_height(body, pos)
            radial = np.linalg.norm(pos - ball.center, axis=1)
            on_cap = np.abs(radial - ball.radius) <= tol
            on_flat = np.abs(s - t) <= 1e-12
            assert (on_cap | on_flat).all()
            assert (s <= t + 1e-12).all() and (radial <= ball.radius + tol).all()
            assert on_cap.any() and on_flat.any()
            assert np.allclose(nrm[on_cap & ~on_flat],
                               (ball.center - pos[on_cap & ~on_flat]) / ball.radius,
                               atol=1e-12)
            assert np.all(nrm[on_flat & ~on_cap] == -a)
            assert body.contains_many(pos + 1e-9 * nrm).all()
            assert not body.contains_many(pos - 1e-9 * nrm).any()

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("t", T)
    def test_independent_of_batch_size(self, n, t, monkeypatch):
        body = self.body(n, t)
        first = body.boundary_arrays(1000, 17)
        for batch in (1, 7, 4096):
            monkeypatch.setattr(cg, "_BATCH", batch)
            again = body.boundary_arrays(1000, 17)
            assert all(np.array_equal(x, y) for x, y in zip(first, again))

    def test_half_disk_split(self):
        # 8 pi / (pi + 2) = 4.9 arc points; the whole-circle mixture gave
        # the arc 8 (2 pi) / (2 pi + 2) = 6.1
        body = presets.half_ball(2)
        assert np.array_equal(cg._largest_remainder(body._strata()[1], 8), [5, 3])
        pos, _nrm = body.stratified_boundary(8, 5)
        on_flat = pos[:, 1] == 0.0
        assert np.array_equal(on_flat, [False] * 5 + [True] * 3)

    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_zero_area_flat_face_never_drawn(self, t):
        for n in (2, 3, 5):
            body = half_space_cut(np.full(n, 0.5), 2.0, np.ones(n), t)
            _tag, weights = body._strata()
            assert len(weights) == 1
            assert weights[0] == pytest.approx(body.surface_area_exact(), rel=1e-15)
            _pos, _nrm, _wgt, ok = self.batch(body)
            assert ok.all()
            for pos in (body.boundary_arrays(3000, 4)[0],
                        body.stratified_boundary(50, 4)[0]):
                radial = np.linalg.norm(pos - 0.5, axis=1)
                assert np.allclose(radial, 2.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_ball_mixture_takes_no_linear_program(self, n, monkeypatch):
        # the cap and the flat face have closed-form areas; the half-space
        # member is never clipped
        body = presets.half_ball(n)

        def refuse(*args, **kwargs):
            raise AssertionError("linear program solved")

        monkeypatch.setattr(cg, "linprog", refuse)
        draws, areas = body._mixture
        _ball, _a, _t, cap, flat = body._half_ball
        assert len(draws) == 2 and np.array_equal(areas, [cap, flat])
        assert body._strata()[1] is areas


def monomials(n, degree):
    """Every exponent tuple in n variables of total degree <= degree."""
    for total in range(degree + 1):
        for picks in itertools.combinations_with_replacement(range(n), total):
            yield tuple(int(k) for k in np.bincount(np.array(picks, dtype=int),
                                                     minlength=n))


def assert_integrates_monomials(rule, degree, exact):
    """sum w x^p equals exact(p) to 1e-13 relative for every monomial of
    total degree <= degree; where exact(p) is 0 (odd powers), to 1e-13 of
    sum |w x^p|."""
    nodes, weights = rule
    n = nodes.shape[1]
    powers = [[np.ones(len(nodes))] for _ in range(n)]
    for i in range(n):
        for _ in range(degree):
            powers[i].append(powers[i][-1] * nodes[:, i])
    for p in monomials(n, degree):
        mono = weights.copy()
        for i, k in enumerate(p):
            if k:
                mono *= powers[i][k]
        ref = float(exact(p))
        scale = abs(ref) if ref != 0.0 else float(np.abs(mono).sum())
        assert abs(mono.sum() - ref) <= 1e-13 * scale, (p, mono.sum(), ref)


MAX = cg.CUBATURE_MAX_DEGREE


class TestCubature:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_balls_and_spheres(self, n):
        body = presets.unit_ball(n)
        assert_integrates_monomials(cg.cubature(body, MAX), MAX,
                                    lambda p: oracles._unit_ball_monomial(n, p))
        assert_integrates_monomials(cg.boundary_cubature(body, MAX), MAX,
                                    lambda p: oracles.sphere_monomial(n, p))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_ellipsoid_solids(self, n):
        body = presets.beck_ellipsoid(n)
        b = body.semi_axes
        assert_integrates_monomials(
            cg.cubature(body, MAX), MAX,
            lambda p: (np.prod(b * b ** np.array(p))
                       * oracles._unit_ball_monomial(n, p)))
        assert cg.boundary_cubature(body, 1) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_boxes_and_their_faces(self, n):
        body = cg.Box(np.linspace(-1.0, 0.5, n), np.linspace(0.5, 2.5, n))
        for degree in (0, 1, MAX):
            for rule, exact in ((cg.cubature, oracles.exact_volume_integral),
                                (cg.boundary_cubature,
                                 oracles.exact_boundary_integral)):
                assert_integrates_monomials(
                    rule(body, degree), degree,
                    lambda p: exact(body, hh.HarmonicPolynomial({p: 1.0}, n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_simplices_and_their_faces(self, n):
        body = presets.simplex(n)
        for degree in (0, 1, 2, 5, MAX):
            assert_integrates_monomials(cg.cubature(body, degree), degree,
                                        oracles.simplex_monomial)
            assert_integrates_monomials(cg.boundary_cubature(body, degree),
                                        degree, oracles.simplex_boundary_monomial)

    def test_random_polytope_moments(self):
        body = presets.body_preset("random-polytope-n3")
        vertices = hull(body).points
        mean, second = oracles.polytope_moments(vertices)
        self.assert_moments(cg.cubature(body, 2),
                            [(body.volume_exact(), mean, second)])
        self.assert_moments(cg.boundary_cubature(body, 2),
                            [oracles.hull_boundary_moments(vertices)])

    @staticmethod
    def assert_moments(rule, parts):
        """Mass, first and second moments of the rule against the sums of
        (measure, mean, second moment) over ``parts``, to 1e-13 relative."""
        nodes, w = rule
        mass = sum(m for m, _mean, _sec in parts)
        first = sum(m * mean for m, mean, _sec in parts)
        second = sum(m * sec for m, _mean, sec in parts)
        assert w.sum() == pytest.approx(mass, rel=1e-13)
        assert w @ nodes == pytest.approx(first, rel=1e-13)
        assert (nodes.T * w) @ nodes == pytest.approx(second, rel=1e-13)

    def test_sliver_square_monomials(self):
        # the cut triangle weighs 5e-19, below the tolerance; the Gram
        # determinant of a sliver lost half the digits (x^2 off by 1.3e-9)
        body = square_with_cut_corner(1e-9)
        assert_integrates_monomials(cg.cubature(body, MAX), MAX,
                                    lambda p: 1.0 / ((p[0] + 1) * (p[1] + 1)))

    @pytest.mark.parametrize("body", [
        presets.unit_ball(3), presets.unit_box(2), presets.simplex(3),
        presets.beck_ellipsoid(4), presets.body_preset("random-polytope-n3"),
        square_with_cut_corner(1e-9), square_with_cut_corner(1e-6),
        presets.random_polytope(2, 6, 4)],
        ids=["ball", "box", "simplex", "ellipsoid", "random-polytope",
             "cut-square-1e-9", "cut-square-1e-6", "random-polytope-2-6-4"])
    def test_measures_and_read_only_nodes(self, body):
        nodes, w = cg.cubature(body, 3)
        assert w.sum() == pytest.approx(body.volume_exact(), rel=1e-13)
        assert body.contains_many(nodes).all()
        for a in (nodes, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        area = body.surface_area_exact()
        rule = cg.boundary_cubature(body, 3)
        # every body here has an exact area; only the ellipsoid's boundary
        # has no rule
        assert area is not None
        assert (rule is None) == isinstance(body, cg.Ellipsoid)
        if rule is not None:
            nodes, w = rule
            assert w.sum() == pytest.approx(area, rel=1e-13)
            assert np.abs(body.distances_many(nodes)).max() <= 1e-12

    @pytest.mark.parametrize("degree", [-1, MAX + 1])
    def test_no_rule_outside_the_tested_degrees(self, degree):
        for body in (presets.unit_ball(2), presets.unit_box(2),
                     presets.simplex(2), presets.beck_ellipsoid(2)):
            assert cg.cubature(body, degree) is None
            assert cg.boundary_cubature(body, degree) is None

    def test_no_rule_on_intersections(self):
        body = presets.half_ball(2)
        assert cg.cubature(body, 1) is None
        assert cg.boundary_cubature(body, 1) is None


class TestInvariants:
    def test_inscribed_sphere_inside(self):
        bodies = [cg.Ball([0, 0], 1.0), cg.Box([0, 0, 0], [1, 2, 1]),
                  cg.Ellipsoid([0, 0], [2.0, 1.0]), unit_simplex(2), half_disk()]
        for body in bodies:
            x = body.interior_point()
            r = float(body.distances_many(x[None, :])[0])
            ids = np.arange(256, dtype=np.uint64)
            dirs = rng.unit_vectors(21, ids, 0, body.dimension)
            probe = x + 0.999999 * r * dirs
            assert body.contains_many(probe).all()

    def test_distance_lipschitz_along_segments(self):
        bodies = [cg.Ball([0, 0], 1.0), cg.Ellipsoid([0, 0], [2.0, 1.0]),
                  half_disk(), unit_simplex(2)]
        gen = np.random.Generator(np.random.Philox(key=np.array([4, 0],
                                                                dtype=np.uint64)))
        for body in bodies:
            pts = cg.interior_points(body, 40, key=33)
            for _ in range(40):
                i, j = gen.integers(0, len(pts), size=2)
                di = body.distances_many(pts[i][None, :])[0]
                dj = body.distances_many(pts[j][None, :])[0]
                gap = np.linalg.norm(pts[i] - pts[j])
                assert abs(di - dj) <= gap + 1e-12

    def test_exact_vs_mc_volumes(self):
        shapes = [cg.Ball([0, 0], 1.0), cg.Ellipsoid([0, 0], [2.0, 1.0]),
                  cg.Box([0, 0], [1.5, 0.5]), presets.simplex(3),
                  presets.body_preset("random-polytope-n3"),
                  oblique_half_ball(3)]
        for body in shapes:
            mean, se = mc_volume(body, CFG.samples, CFG.seed)
            # a box fills its bounding box: se is 0, the mean rounds
            assert abs(mean - body.volume_exact()) \
                <= 4.0 * se + 1e-12 * body.volume_exact()


class TestValidation:
    def test_unbounded_polytope_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            cg.Polytope([(np.array([0.0, -1.0]), 0.0)])

    def test_empty_polytope_rejected(self):
        with pytest.raises(ValueError):
            cg.Polytope([(np.array([1.0, 0.0]), -1.0),
                         (np.array([-1.0, 0.0]), -1.0)])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            cg.Polytope([(np.array([0.0, -2.0]), 0.0),
                         (np.array([0.0, 1.0]), 1.0)])

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cg.Intersection([cg.Ball([0, 0], 1.0), half_space([0.0, 0.0, -1.0])])

    def test_intersection_empty_rejected(self):
        # planes missing the disc, one along an axis and one oblique
        for normal, offset in (([0.0, 1.0], -5.0), ([0.6, 0.8], -1.0)):
            with pytest.raises(ValueError, match="empty"):
                cg.Intersection([cg.Ball([0, 0], 1.0), half_space(normal, offset)])

    REJECTED = {
        "ball-ball": lambda: [cg.Ball([0, 0], 1.0), cg.Ball([0.5, 0], 1.0)],
        "ellipsoid-half-space": lambda: [cg.Ellipsoid([0, 0], [1.0, 2.0]),
                                         half_space([0.0, -1.0])],
        "two-half-spaces-one-member": lambda: [
            cg.Ball([0, 0], 1.0),
            cg.Polytope([(np.array([0.0, -1.0]), 0.0),
                         (np.array([-1.0, 0.0]), 0.0)], require_bounded=False)],
        "two-half-spaces-two-members": lambda: [
            cg.Ball([0, 0], 1.0), half_space([0.0, -1.0]),
            half_space([-1.0, 0.0])],
        "ball-box": lambda: [cg.Ball([0, 0], 1.0), cg.Box([-2, 0], [2, 2])],
        "three-members": lambda: [*half_disk().members,
                                  cg.Box([-2, -2], [2, 2])],
        "nested": lambda: [half_disk(), cg.Ball([0.5, 0], 1.0)],
    }

    @pytest.mark.parametrize("kind", sorted(REJECTED))
    def test_only_half_balls_are_intersections(self, kind):
        members = self.REJECTED[kind]()
        with pytest.raises(ValueError, match="single polytope"):
            cg.Intersection(members)
        doc = {"dimension": 2, "shape": {
            "type": "intersection", "members": [m.shape_json() for m in members]}}
        with pytest.raises(ValueError, match="single polytope"):
            cg.body_from_json(json.loads(json.dumps(doc)))

    def test_unbounded_intersection_rejected(self):
        a = cg.Polytope([(np.array([0.0, -1.0]), 0.0)], require_bounded=False)
        b = cg.Polytope([(np.array([-1.0, 0.0]), 0.0)], require_bounded=False)
        with pytest.raises(ValueError):
            cg.Intersection([a, b])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            cg.Box([0, 0], [1, 0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_ball_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            cg.Ball([value, 0.0], 1.0)
        with pytest.raises(ValueError, match="finite"):
            cg.Ball([0.0, 0.0], abs(value))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ellipsoid_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            cg.Ellipsoid([0.0, value], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            cg.Ellipsoid([0.0, 0.0], [1.0, value])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_box_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            cg.Box([0.0, -value], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            cg.Box([0.0, 0.0], [value, 1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_polytope_rejected(self, value):
        halves = [(np.array([-1.0, 0.0]), 0.0), (np.array([0.0, -1.0]), 0.0),
                  (np.array([1.0, 1.0]) / math.sqrt(2.0), 1.0)]
        with pytest.raises(ValueError, match="finite"):
            cg.Polytope(halves[:2] + [(np.array([value, 1.0]), 1.0)])
        with pytest.raises(ValueError, match="finite"):
            cg.Polytope(halves[:2] + [(halves[2][0], value)])

    def test_inradius(self):
        assert half_disk().inradius() == pytest.approx(0.5, abs=1e-6)
        assert cg.Box([0, 0], [2, 1]).inradius() == 0.5


class TestJson:
    def test_round_trips(self):
        bodies = [cg.Ball([0.25, -1.0], 1.5),
                  cg.Ellipsoid([0.0, 0.0, 0.0], [2.0, 1.0, 0.5]),
                  cg.Box([0, 0], [1, 2]),
                  unit_simplex(2),
                  half_disk()]
        for body in bodies:
            doc = cg.body_to_json(body)
            clone = cg.body_from_json(json.loads(json.dumps(doc)))
            assert cg.body_to_json(clone) == doc

    def test_dimension_validated(self):
        doc = {"dimension": 3, "shape": {"type": "ball", "center": [0, 0],
                                         "radius": 1.0}}
        with pytest.raises(ValueError):
            cg.body_from_json(doc)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            cg.body_from_json({"dimension": 2, "shape": {"type": "torus"}})

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "ball",
        None,
        {"dimension": 2},
        {"dimension": "2", "shape": {"type": "ball", "center": [0, 0],
                                     "radius": 1.0}},
        {"dimension": 2.0, "shape": {"type": "ball", "center": [0, 0],
                                     "radius": 1.0}},
        {"dimension": 2, "shape": [0, 0]},
        {"dimension": 2, "shape": {"type": "ball", "center": [0, 0]}},
        {"dimension": 2, "shape": {"type": "ball", "center": "00",
                                   "radius": 1.0}},
        {"dimension": 2, "shape": {"type": "ball", "center": [0, "0"],
                                   "radius": 1.0}},
        {"dimension": 2, "shape": {"type": "ball", "center": [0, 0],
                                   "radius": True}},
        {"dimension": 2, "shape": {"type": "ball", "center": [math.nan, 0],
                                   "radius": 1.0}},
        {"dimension": 2, "shape": {"type": "box", "lower": [0, 0],
                                   "upper": {"x": 1}}},
        {"dimension": 2, "shape": {"type": "polytope", "half_spaces": {}}},
        {"dimension": 2, "shape": {"type": "polytope", "half_spaces": [[1, 0]]}},
        {"dimension": 2, "shape": {"type": "polytope", "half_spaces": [
            {"normal": [1, 0], "offset": "1"}]}},
        {"dimension": 2, "shape": {"type": "intersection", "members": [1, 2]}},
    ])
    def test_malformed_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            cg.body_from_json(doc)
