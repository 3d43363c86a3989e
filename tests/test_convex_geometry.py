"""Geometry oracles: membership, distances, volumes, areas, sampling."""

import json
import math

import numpy as np
import pytest

from torsion_bound import convex_geometry as cg
from torsion_bound.estimates import WosConfig

import oracles

CFG = WosConfig(samples=200_000, seed=1)


def half_disk():
    return cg.Intersection([
        cg.Ball([0.0, 0.0], 1.0),
        cg.Polytope([(np.array([0.0, -1.0]), 0.0)], require_bounded=False),
    ])


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
            exact = cg.ellipsoid_exact_distance(e, p)
            oracle = oracles.ray_distance(e, p, n_dirs=8192)
            assert lb <= exact + 1e-12
            assert exact == pytest.approx(oracle, abs=2e-4)

    def test_exact_distance_flag_used_in_walks(self):
        e = cg.Ellipsoid([0.0, 0.0], [2.0, 1.0], exact_distance=True)
        p = np.array([1.0, 0.3])
        assert (cg.distance_to_boundary(e, p)
                == pytest.approx(cg.ellipsoid_exact_distance(e, p)))


class TestVolume:
    def test_ball_exact(self):
        est = cg.volume(cg.Ball([0, 0], 1.0), CFG)
        assert est.is_exact
        assert est.mean == pytest.approx(math.pi)

    def test_ellipsoid_exact_and_mc_cross_check(self):
        e = cg.Ellipsoid([0.0, 0.0], [2.0, math.sqrt(2.0)])
        est = cg.volume(e, CFG)
        assert est.mean == pytest.approx(2.0 * math.sqrt(2.0) * math.pi)
        # rejection-sample the same ellipsoid as an Intersection member to
        # force the Monte Carlo path
        forced = cg.Intersection([e, cg.Box([-2, -2], [2, 2])])
        mc = cg.volume(forced, CFG)
        assert abs(mc.mean - est.mean) <= 4.0 * mc.stderr

    def test_half_disk_mc(self):
        est = cg.volume(half_disk(), CFG)
        assert est.stderr > 0
        assert abs(est.mean - math.pi / 2.0) <= 3.0 * est.stderr

    def test_polytope_mc_vs_lasserre(self):
        s = unit_simplex(3)
        est = cg.volume(s, CFG)
        assert abs(est.mean - s.volume_lasserre()) <= 4.0 * est.stderr
        assert s.volume_lasserre() == pytest.approx(1.0 / 6.0)


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
        assert abs(est.mean - (2.0 + math.pi)) <= 3.0 * est.stderr

    def test_ellipse_perimeter(self):
        # 4 a E(e) for the ellipse with semi-axes (2, sqrt(2))
        from scipy.special import ellipe

        exact = 8.0 * ellipe(0.5)
        est = cg.surface_area(cg.Ellipsoid([0, 0], [2.0, math.sqrt(2.0)]), CFG)
        assert abs(est.mean - exact) <= 3.0 * est.stderr


class TestBoundarySampling:
    def test_ball_on_sphere(self):
        pts = cg.sample_boundary(cg.Ball([0, 0], 1.0), 500, seed=9)
        radii = [np.linalg.norm(p.position) for p in pts]
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_box_face_fractions(self):
        pts = cg.sample_boundary(cg.Box([0, 0], [1, 1]), 40_000, seed=2)
        pos = np.array([p.position for p in pts])
        for k, side in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
            frac = np.mean(np.isclose(pos[:, k], side))
            se = math.sqrt(0.25 * 0.75 / len(pos))
            assert abs(frac - 0.25) <= 3.0 * se

    def test_half_disk_flat_fraction(self):
        pts = cg.sample_boundary(half_disk(), 40_000, seed=3)
        pos = np.array([p.position for p in pts])
        frac = np.mean(np.abs(pos[:, 1]) < 1e-12)
        expect = 2.0 / (2.0 + math.pi)
        se = math.sqrt(expect * (1.0 - expect) / len(pos))
        assert abs(frac - expect) <= 3.0 * se

    def test_positions_on_boundary_and_normals_inward(self):
        bodies = [cg.Ball([0, 0, 0], 2.0),
                  cg.Box([0, 0], [2, 1]),
                  cg.Ellipsoid([1.0, 0.0], [2.0, 1.0]),
                  unit_simplex(3),
                  half_disk()]
        for body in bodies:
            pos, nrm, _w = body.boundary_arrays(400, key=11)
            assert np.max(np.abs(body.distances_many(pos))) <= 1e-9 * body.diameter
            assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-12)
            assert body.contains_many(pos + 1e-9 * nrm).all()
            assert not body.contains_many(pos - 1e-9 * nrm).any()

    def test_bit_identical_given_seed(self):
        body = half_disk()
        a = cg.sample_boundary(body, 100, seed=5)
        b = cg.sample_boundary(body, 100, seed=5)
        assert all(np.array_equal(p.position, q.position)
                   and np.array_equal(p.inward_normal, q.inward_normal)
                   and p.weight == q.weight for p, q in zip(a, b))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            cg.sample_boundary(cg.Ball([0, 0], 1.0), 0, seed=1)


class TestInvariants:
    def test_inscribed_sphere_inside(self):
        bodies = [cg.Ball([0, 0], 1.0), cg.Box([0, 0, 0], [1, 2, 1]),
                  cg.Ellipsoid([0, 0], [2.0, 1.0]), unit_simplex(2), half_disk()]
        for body in bodies:
            x = body.interior_point()
            r = float(body.distances_many(x[None, :])[0])
            ids = np.arange(256, dtype=np.uint64)
            from torsion_bound import rng
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
        # force the Monte Carlo route via an enclosing-box intersection
        shapes = [cg.Ball([0, 0], 1.0), cg.Ellipsoid([0, 0], [2.0, 1.0]),
                  cg.Box([0, 0], [1.5, 0.5])]
        for body in shapes:
            forced = cg.Intersection([body, cg.Box([-3, -3], [3, 3])])
            mc = cg.volume(forced, CFG)
            assert abs(mc.mean - body.volume_exact()) <= 4.0 * mc.stderr


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
        with pytest.raises(ValueError):
            cg.Intersection([cg.Ball([0, 0], 1.0), cg.Ball([0, 0, 0], 1.0)])

    def test_intersection_empty_rejected(self):
        with pytest.raises(ValueError):
            cg.Intersection([cg.Ball([0, 0], 1.0), cg.Ball([5, 0], 1.0)])

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
