"""Certificates, integrals, and the two inequality checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_bound import analytic_library as al
from torsion_bound import convex_geometry as cg
from torsion_bound import hh_verifier as hh
from torsion_bound import presets
from torsion_bound.estimates import WosConfig

import oracles

CFG = WosConfig(samples=60_000, seed=2)
FAST = WosConfig(samples=8_000, seed=2)


def half_disk():
    return presets.half_ball(2)


class TestFunctionKinds:
    def test_affine(self):
        f = hh.Affine(1.0, [0.0, -1.0])
        assert f([0.3, 0.4]) == pytest.approx(0.6)
        assert hh.Affine(1.0, [0.0, -1.0]).laplacian(np.zeros((3, 2))).tolist() \
            == [0.0, 0.0, 0.0]

    def test_quadratic(self):
        f = hh.Quadratic([1.0, 0.0], constant=2.0)
        assert f([0.0, 0.0]) == pytest.approx(3.0)
        assert f.laplacian(np.zeros((1, 2)))[0] == 4.0

    def test_shifted_norm(self):
        f = hh.ShiftedNorm([3.0, 0.0, 0.0])
        assert f([0.0, 0.0, 0.0]) == pytest.approx(3.0)
        assert f.laplacian(np.zeros((1, 3)))[0] == pytest.approx(2.0 / 3.0)

    def test_polynomial_symbolic_laplacian_vs_fd(self):
        # cubic harmonic plus a quartic bump: lap computed symbolically
        f = hh.HarmonicPolynomial({(3, 0): 1.0, (1, 2): -3.0, (4, 0): 0.25,
                                   (0, 0): 2.0}, 2)
        gen = np.random.Generator(np.random.Philox(key=np.array([12, 0],
                                                                dtype=np.uint64)))
        pts = gen.uniform(-1, 1, size=(100, 2))
        sym = f.laplacian(pts)
        for x, s in zip(pts, sym):
            fd = oracles.fd_laplacian(f, x)
            assert fd == pytest.approx(s, rel=1e-6, abs=1e-6)

    def test_polynomial_json_round_trip_is_bit_identical(self):
        # the terms are kept sorted, the order to_json writes them in, so
        # the clone adds them in the same order
        body = presets.unit_box(3)
        f = presets.harmonic_cubic(body)
        clone = hh.fn_from_json(f.to_json(), 3)
        assert list(clone.terms) == list(f.terms) == sorted(f.terms)
        pts = cg.interior_points(body, 30_000, 5)
        assert np.array_equal(clone.value(pts), f.value(pts))
        assert np.array_equal(clone.laplacian(pts), f.laplacian(pts))

    def test_harmonic_cubic_is_harmonic(self):
        f = presets.harmonic_cubic(cg.Ball([0.0, 0.0], 1.0))
        assert not f._laplacian_terms

    def test_combination_weights_validated(self):
        with pytest.raises(ValueError):
            hh.PositiveCombination([(-1.0, hh.Affine(1.0, [0.0, 0.0]))])

    def test_json_round_trip(self):
        fns = [hh.Affine(1.0, [0.0, -1.0]),
               hh.Quadratic([0.5, 0.5], constant=1.0, linear=[0.1, 0.0]),
               hh.HarmonicPolynomial({(3, 0): 1.0, (1, 2): -3.0}, 2),
               hh.ShiftedNorm([3.0, 0.0]),
               hh.PositiveCombination([(2.0, hh.Affine(1.0, [0.0, 0.0])),
                                       (0.5, hh.ShiftedNorm([4.0, 0.0]))])]
        for f in fns:
            doc = json.loads(json.dumps(f.to_json()))
            clone = hh.fn_from_json(doc, 2)
            assert clone.to_json() == f.to_json()
            X = np.array([[0.1, 0.2], [-0.3, 0.4]])
            assert np.allclose(clone.value(X), f.value(X))

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "affine",
        {"kind": "affine", "linear": [0.0, 1.0]},
        {"kind": "affine", "constant": "1", "linear": [0.0, 1.0]},
        {"kind": "affine", "constant": 1.0, "linear": [0.0, 1.0, 2.0]},
        {"kind": "affine", "constant": float("nan"), "linear": [0.0, 1.0]},
        {"kind": "quadratic", "center": {"x": 0.0}},
        {"kind": "harmonic_polynomial", "terms": {"powers": [1, 0]}},
        {"kind": "harmonic_polynomial", "terms": [{"powers": [1.5, 0],
                                                   "coeff": 1.0}]},
        {"kind": "harmonic_polynomial", "terms": [{"powers": [-1, 0],
                                                   "coeff": 1.0}]},
        {"kind": "harmonic_polynomial", "terms": [
            {"powers": [1, 0], "coeff": 1.0}, {"powers": [1, 0], "coeff": 2.0}]},
        {"kind": "harmonic_polynomial", "terms": [
            {"powers": [0, 2], "coeff": 1.0}, {"powers": [0, 2], "coeff": 1.0}]},
        {"kind": "harmonic_polynomial", "terms": [{"powers": [65, 0],
                                                   "coeff": 1.0}]},
        {"kind": "harmonic_polynomial", "terms": [{"powers": [2, 10**400],
                                                   "coeff": 1.0}]},
        {"kind": "shifted_norm", "anchor": 3.0},
        {"kind": "positive_combination", "terms": [[2.0, {}]]},
        {"kind": "positive_combination",
         "terms": [{"weight": 1.0, "fn": [1]}]},
    ])
    def test_malformed_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            hh.fn_from_json(doc, 2)

    @pytest.mark.parametrize("powers", [(1.5, 0), (1, 0.5), (math.inf, 0),
                                        (math.nan, 0), (-1, 0), (65, 0)])
    def test_polynomial_powers_are_integers_in_range(self, powers):
        with pytest.raises(ValueError):
            hh.HarmonicPolynomial({powers: 1.0}, 2)

    def test_polynomial_largest_power_accepted(self):
        f = hh.HarmonicPolynomial({(64, 0): 1.0, (2.0, 0): 1.0}, 2)
        assert set(f.terms) == {(64, 0), (2, 0)}
        assert f([-1.0, 0.5]) == 2.0


def _random_terms(gen, n: int, count: int, max_power: int) -> dict:
    terms = {}
    while len(terms) < count:
        powers = tuple(int(p) for p in gen.integers(0, max_power + 1, n))
        terms[powers] = float(gen.uniform(-2.0, 2.0))
    return terms


class TestPolyEval:
    """The multiplication kernel against rational evaluation of the same
    float inputs: within (degree + terms) eps sum |coeff * monomial|."""

    @staticmethod
    def assert_within_rounding(terms, X, values):
        assert values.shape == (len(X),)
        degree = max((sum(p) for p in terms), default=0)
        tol = (degree + len(terms)) * np.finfo(float).eps
        for v, (exact, scale) in zip(values,
                                     oracles.poly_eval_exact(terms, X)):
            assert abs(Fraction(float(v)) - exact) <= tol * scale

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_terms_within_rounding(self, n):
        gen = np.random.default_rng(40 + n)
        terms = _random_terms(gen, n, 6, 6)
        top = [0] * n
        top[n - 1] = 6
        terms[tuple(top)] = -0.75
        if n >= 3:  # a term with three or more nonzero factors
            terms[(2, 1, 3) + (1,) * (n - 3)] = 1.25
        X = gen.uniform(-1.5, 1.5, size=(200, n))
        self.assert_within_rounding(terms, X, hh._poly_eval(terms, X))
        # the earlier pow kernel meets the same budget
        self.assert_within_rounding(terms, X, oracles.poly_eval_pow(terms, X))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_powers_zero_and_one_equal_the_pow_kernel(self, n):
        # x^0 and x^1 are exact under pow too, so the products (in
        # ascending column order) and the sum agree bit for bit
        gen = np.random.default_rng(60 + n)
        terms = _random_terms(gen, n, min(8, 2 ** n), 1)
        X = gen.uniform(-1.5, 1.5, size=(500, n))
        assert np.array_equal(hh._poly_eval(terms, X),
                              oracles.poly_eval_pow(terms, X))

    def test_constant_and_empty_dicts(self):
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 3))
        assert hh._poly_eval({(0, 0, 0): 2.5}, X).tolist() == [2.5] * 5
        assert hh._poly_eval({}, X).tolist() == [0.0] * 5
        assert hh._poly_eval({}, X).shape == (5,)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_row(self, rows):
        terms = {(3, 0): 1.0, (1, 2): -3.0, (0, 0): 0.5}
        X = np.full((rows, 2), 0.7)
        values = hh._poly_eval(terms, X)
        assert values.shape == (rows,)
        self.assert_within_rounding(terms, X, values)

    def test_read_only_points_are_not_written(self):
        gen = np.random.default_rng(9)
        terms = _random_terms(gen, 4, 7, 5)
        X = gen.uniform(-1.5, 1.5, size=(64, 4))
        before = X.copy()
        X.flags.writeable = False
        values = hh._poly_eval(terms, X)
        assert np.array_equal(X, before)
        self.assert_within_rounding(terms, X, values)


class TestCertificates:
    def test_superharmonic_rejected_with_witness(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        # -|x-a|^2 has laplacian -2n < 0
        bad = hh.HarmonicPolynomial({(2, 0): -1.0, (0, 2): -1.0, (0, 0): 9.0}, 2)
        with pytest.raises(hh.CertificateError) as err:
            hh.certify_subharmonic(body, bad)
        assert err.value.witness.shape == (2,)

    def test_boundary_negative_rejected_with_witness(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        f = hh.Affine(0.0, [0.0, 1.0])  # y: negative on the lower arc
        with pytest.raises(hh.CertificateError) as err:
            hh.certify_boundary_nonnegative(body, f)
        assert cg.contains(body, err.value.witness)

    def test_anchor_inside_rejected(self):
        with pytest.raises(hh.CertificateError):
            hh.certify_subharmonic(cg.Ball([0.0, 0.0], 1.0),
                                   hh.ShiftedNorm([0.5, 0.0]))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_anchor_inside_rejected_at_any_depth(self, depth):
        # (n - 1)/|x - a| is positive at every probe: only the anchor
        # check rejects this function
        fn = hh.ShiftedNorm([0.0, 0.0])
        for _ in range(depth):
            fn = hh.PositiveCombination([(1.0, fn)])
        with pytest.raises(hh.CertificateError, match="anchor") as err:
            hh.certify_subharmonic(cg.Ball([0.0, 0.0], 1.0), fn)
        assert np.array_equal(err.value.witness, [0.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("terms", [
        # NaN everywhere, and so its Laplacian
        {(2, 0): math.nan},
        # finite terms whose Laplacian 2e308 - 2e308 is NaN and whose
        # boundary values overflow
        {(2, 0): 1e308, (0, 2): -1e308, (0, 0): 1e308},
    ], ids=["nan", "overflow"])
    def test_non_finite_values_rejected_with_witness(self, terms):
        # NaN compares false to every tolerance: both once passed
        body = cg.Ball([0.0, 0.0], 1.0)
        fn = hh.HarmonicPolynomial(terms, 2)
        for certify in (hh.certify_subharmonic,
                        hh.certify_boundary_nonnegative):
            with pytest.raises(hh.CertificateError, match="is not finite") as err:
                certify(body, fn)
            assert cg.contains(body, err.value.witness)

    def test_sign_changing_inside_accepted(self):
        # negative deep inside, nonnegative on the boundary: admissible
        body = cg.Ball([0.0, 0.0], 1.0)
        f = hh.Quadratic([0.0, 0.0], constant=-0.5)
        hh.certify_subharmonic(body, f)
        hh.certify_boundary_nonnegative(body, f)
        assert f([0.0, 0.0]) < 0.0


class TestVolumeIntegral:
    def test_half_disk_affine(self):
        est = hh.volume_integral(half_disk(), hh.Affine(1.0, [0.0, -1.0]), CFG)
        exact = math.pi / 2.0 - 2.0 / 3.0
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_ball_constant_is_volume(self):
        est = hh.volume_integral(cg.Ball([0.0, 0.0], 1.0),
                                 hh.Affine(1.0, [0.0, 0.0]), FAST)
        assert est.mean == pytest.approx(math.pi, rel=1e-12)

    def test_box_harmonic_cancels(self):
        f = hh.HarmonicPolynomial({(2, 0): 1.0, (0, 2): -1.0}, 2)
        box = cg.Box([0.0, 0.0], [1.0, 1.0])
        est = hh.volume_integral(box, oracles.sampled(f), CFG)
        assert abs(est.mean) <= 4.0 * est.stderr
        exact = hh.volume_integral(box, f, CFG)
        assert exact.stderr == 0.0 and abs(exact.mean) <= 1e-15

    def test_matches_exact_polynomial_integrals(self):
        ball = cg.Ball([0.5, -0.25], 1.5)
        f = hh.HarmonicPolynomial({(3, 0): 1.0, (1, 2): -3.0, (0, 0): 4.0}, 2)
        box = cg.Box([0.0, -1.0], [2.0, 1.0])
        for body in (ball, box):
            truth = oracles.exact_volume_integral(body, f)
            est = hh.volume_integral(body, oracles.sampled(f), CFG)
            assert abs(est.mean - truth) <= 4.0 * est.stderr
            exact = hh.volume_integral(body, f, CFG)
            assert exact.stderr == 0.0
            assert exact.mean == pytest.approx(truth, rel=1e-13)


class TestExactIntegrals:
    def test_unit_ball_monomials_vs_quadrature(self):
        from scipy.integrate import dblquad

        ball = cg.Ball([0.0, 0.0], 1.0)
        for powers in ((0, 0), (2, 0), (2, 2), (4, 0), (1, 0), (1, 1)):
            f = hh.HarmonicPolynomial({powers: 1.0}, 2)
            brute, _ = dblquad(
                lambda y, x: x ** powers[0] * y ** powers[1],
                -1, 1,
                lambda x: -math.sqrt(max(1.0 - x * x, 0.0)),
                lambda x: math.sqrt(max(1.0 - x * x, 0.0)),
                epsabs=1e-10)
            assert oracles.exact_volume_integral(ball, f) == pytest.approx(
                brute, abs=1e-7)

    def test_shifted_norm_unsupported(self):
        with pytest.raises(ValueError):
            oracles.exact_volume_integral(cg.Ball([0.0, 0.0], 1.0),
                                     hh.ShiftedNorm([3.0, 0.0]))

    def test_polytope_unsupported(self):
        with pytest.raises(ValueError):
            oracles.exact_volume_integral(presets.simplex(2),
                                     hh.Affine(1.0, [0.0, 0.0]))


class TestBoundaryIntegral:
    def test_half_disk_affine(self):
        est = hh.boundary_integral(half_disk(), hh.Affine(1.0, [0.0, -1.0]),
                                   CFG)
        assert abs(est.mean - math.pi) <= 3.0 * est.stderr

    def test_ball_constant(self):
        est = hh.boundary_integral(cg.Ball([0.0, 0.0], 1.0),
                                   hh.Affine(1.0, [0.0, 0.0]), FAST)
        assert est.mean == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_ball_odd_function_cancels(self):
        f = hh.Affine(0.0, [1.0, 0.0])
        est = hh.boundary_integral(cg.Ball([0.0, 0.0], 1.0),
                                   oracles.sampled(f), CFG)
        assert abs(est.mean) <= 4.0 * est.stderr
        exact = hh.boundary_integral(cg.Ball([0.0, 0.0], 1.0), f, CFG)
        assert exact.stderr == 0.0 and abs(exact.mean) <= 1e-15

    def test_ellipse_weighted_constant(self):
        from scipy.special import ellipe

        # the area is a closed form and f = 1 has no variance, so the
        # weighted mean times the area is the perimeter, exactly
        est = hh.boundary_integral(presets.beck_ellipsoid(2),
                                   hh.Affine(1.0, [0.0, 0.0]), CFG)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(8.0 * ellipe(0.5), rel=1e-12)


class TestVerifyTheorem1:
    def test_half_disk_sharpness_ratio(self):
        rep = hh.verify_theorem1(half_disk(), hh.Affine(1.0, [0.0, -1.0]), CFG)
        assert rep.passed
        assert rep.details["ratio"] == pytest.approx(0.2296, abs=0.002)

    def test_certificate_gate(self):
        with pytest.raises(hh.CertificateError):
            hh.verify_theorem1(cg.Ball([0.0, 0.0], 1.0),
                               hh.Affine(0.0, [0.0, 1.0]), FAST)

    def test_constant_on_box_n4(self):
        body = cg.Box([0.0] * 4, [1.0] * 4)
        rep = hh.verify_theorem1(body, hh.Affine(1.0, [0.0] * 4), FAST)
        assert rep.passed
        # 1 <= (sqrt(2)/pi) * 1 * 8
        assert rep.bound_value == pytest.approx(8.0 * math.sqrt(2.0) / math.pi,
                                                rel=0.05)

    def test_shifted_norm_on_ball_n3(self):
        rep = hh.verify_theorem1(cg.Ball([0.0] * 3, 1.0),
                                 hh.ShiftedNorm([3.0, 0.0, 0.0]), FAST)
        assert rep.passed

    def test_margin_additive_over_combination(self):
        body = half_disk()
        f1 = hh.Affine(1.0, [0.0, -1.0])
        f2 = hh.Quadratic([0.0, 0.5], constant=0.0)
        combo = hh.PositiveCombination([(2.0, f1), (0.5, f2)])
        r1 = hh.verify_theorem1(body, f1, FAST)
        r2 = hh.verify_theorem1(body, f2, FAST)
        rc = hh.verify_theorem1(body, combo, FAST)
        # the three calls integrate one shared sample set (the draws depend
        # on the body, seed and sample count, never on f), and the volume
        # factor is common, so linearity is exact up to rounding
        assert rc.margin == pytest.approx(2.0 * r1.margin + 0.5 * r2.margin,
                                          rel=1e-9)


    def test_ratio_undefined_when_boundary_integral_vanishes(self):
        rep = hh.verify_theorem1(cg.Ball([0.0, 0.0], 1.0),
                                 hh.Affine(0.0, [0.0, 0.0]), FAST)
        assert rep.details["boundary_integral"] == 0.0
        assert rep.details["ratio"] is None
        assert rep.details["ratio_stderr"] is None

    def test_ratio_and_boundary_integral_stderr(self):
        body, f = half_disk(), hh.Affine(1.0, [0.0, -1.0])
        rep = hh.verify_theorem1(body, f, CFG)
        d = rep.details
        assert set(d) == {"ratio", "boundary_integral", "volume_root", "fn",
                          "ratio_stderr", "boundary_integral_stderr"}
        rhs = hh.boundary_integral(body, f, CFG)
        assert d["boundary_integral"] == rhs.mean
        assert d["boundary_integral_stderr"] == rhs.stderr > 0.0
        rel = math.hypot(rep.measured.stderr / rep.measured.mean,
                         rep.bound_stderr / rep.bound_value)
        assert d["ratio_stderr"] == pytest.approx(d["ratio"] * rel, rel=1e-12)
        # the stderr describes the reported ratio: the closed form lies
        # within 4 of them
        assert abs(d["ratio"] - al.half_disk_example().ratio) \
            <= 4.0 * d["ratio_stderr"]


_EXACT_CFG = WosConfig(samples=200_000, seed=4)
_POLY_FNS = ("constant", "height-affine", "harmonic-cubic")


def _closed_forms(body, fn):
    """(solid, boundary or None) integrals from tests/oracles.py."""
    if isinstance(body, cg.Polytope):
        return oracles.simplex_integrals(fn, body.dimension)
    boundary = (None if isinstance(body, cg.Ellipsoid)
                else oracles.exact_boundary_integral(body, fn))
    return oracles.exact_volume_integral(body, fn), boundary


class TestExactCubaturePath:
    def test_degrees(self):
        body = presets.unit_box(3)
        cubic = presets.harmonic_cubic(body)
        assert hh.Affine(1.0, [0.0, 0.0]).degree == 1
        assert hh.Quadratic([0.0, 0.0]).degree == 2
        assert cubic.degree == 3
        assert hh.HarmonicPolynomial({}, 2).degree == 0
        # the total degree, not the largest power
        assert hh.HarmonicPolynomial({(1, 1): 1.0, (0, 0): 2.0}, 2).degree == 2
        assert hh.ShiftedNorm([3.0, 0.0]).degree is None
        affine = presets.height_affine(body)
        assert hh.PositiveCombination([(1.0, affine), (2.0, cubic)]).degree == 3
        assert hh.PositiveCombination([]).degree == 0
        mixed = hh.PositiveCombination([(1.0, cubic),
                                        (1.0, presets.shifted_norm_fn(body))])
        assert mixed.degree is None

    @pytest.mark.parametrize("name", [
        f"{kind}-n{n}" for n in (2, 3, 4)
        for kind in ("unit-ball", "unit-box", "simplex", "beck-ellipsoid")])
    def test_suite_pairs(self, name):
        # exact, equal to the closed forms to 1e-12, and within 5 stderr of
        # the sampled path (1e-12 relative where that is exact too: f = 1)
        body = presets.body_preset(name)
        for fn_name in _POLY_FNS:
            fn = presets.fn_preset(fn_name, body)
            solid, boundary = _closed_forms(body, fn)
            pairs = [(hh.volume_integral, solid)]
            if boundary is not None:
                pairs.append((hh.boundary_integral, boundary))
            for integral, truth in pairs:
                exact = integral(body, fn, _EXACT_CFG)
                assert exact.stderr == 0.0, (fn_name, integral)
                assert exact.mean == pytest.approx(truth, rel=1e-12)
                est = integral(body, oracles.sampled(fn), _EXACT_CFG)
                assert abs(exact.mean - est.mean) \
                    <= 5.0 * est.stderr + 1e-12 * abs(truth), (fn_name, integral)
            if boundary is None:
                # the ellipsoid's boundary stays sampled, but its area is a
                # closed form: the constant's boundary integral is exact
                rhs = hh.boundary_integral(body, fn, _EXACT_CFG)
                if fn_name == "constant":
                    assert rhs.stderr == 0.0
                    assert rhs.mean == pytest.approx(
                        oracles.ellipsoid_area_mp(body.semi_axes), rel=1e-12)
                else:
                    assert rhs.stderr > 0.0, fn_name
        norm = presets.shifted_norm_fn(body)
        assert hh.volume_integral(body, norm, _EXACT_CFG).stderr > 0.0

    @pytest.mark.parametrize("body", [presets.unit_box(2), presets.simplex(2),
                                      presets.unit_ball(2)],
                             ids=["box", "simplex", "ball"])
    def test_sampled_outside_the_rules(self, body):
        # the sampled path, bit for bit, for a degree above the cap, a
        # shifted norm and a combination with one
        cfg = WosConfig(samples=4000, seed=3)
        high = hh.HarmonicPolynomial(
            {(cg.CUBATURE_MAX_DEGREE + 1, 0): 1.0, (0, 0): 2.0}, 2)
        norm = presets.shifted_norm_fn(body)
        mixed = hh.PositiveCombination([(1.0, presets.height_affine(body)),
                                        (0.5, norm)])
        for fn in (high, norm, mixed):
            for integral in (hh.volume_integral, hh.boundary_integral):
                est = integral(body, fn, cfg)
                assert est.stderr > 0.0
                assert est == integral(body, oracles.sampled(fn), cfg)

    def test_verify_theorem1_reports_exact_pairs(self):
        body = presets.unit_box(3)
        rep = hh.verify_theorem1(body, presets.harmonic_cubic(body), FAST)
        d = rep.details
        assert rep.measured.stderr == rep.bound_stderr == 0.0
        assert d["ratio_stderr"] == d["boundary_integral_stderr"] == 0.0
        # the solid side is exact on an ellipsoid; its area is sampled
        body = presets.beck_ellipsoid(3)
        rep = hh.verify_theorem1(body, presets.height_affine(body), FAST)
        assert rep.measured.stderr == 0.0 and rep.bound_stderr > 0.0
        # half-balls stay sampled
        body = half_disk()
        rep = hh.verify_theorem1(body, presets.height_affine(body), FAST)
        assert rep.measured.stderr > 0.0 and rep.bound_stderr > 0.0



class _WritesInput(hh.Affine):
    """A test function that scribbles on the points it is given."""

    def value(self, X):
        X[:, 0] = 0.0
        return super().value(X)


def _clear_draws():
    """Drop the kept certificate probes and sample set."""
    hh._cert_probes.cache_clear()
    hh._sample_set.cache_clear()


def _fresh(body, fn, cfg):
    """verify_theorem1 with no draws kept."""
    _clear_draws()
    return hh.verify_theorem1(body, fn, cfg)


def _count_draws(monkeypatch):
    """The draws made from here on, with no draws kept, in order: ("solid",
    count) for each call of cg.interior_points and ("boundary", count) for
    each of ConvexBody.boundary_arrays."""
    draws = []
    inner_solid = cg.interior_points
    inner_boundary = cg.ConvexBody.boundary_arrays

    def counted_solid(body, count, key):
        draws.append(("solid", count))
        return inner_solid(body, count, key)

    def counted_boundary(self, count, key):
        draws.append(("boundary", count))
        return inner_boundary(self, count, key)

    _clear_draws()
    monkeypatch.setattr(cg, "interior_points", counted_solid)
    monkeypatch.setattr(cg.ConvexBody, "boundary_arrays", counted_boundary)
    return draws


class TestSharedSampleSet:
    def test_interleaved_calls_equal_fresh_computations(self):
        a, b = half_disk(), presets.simplex(2)
        f1, f2 = hh.Affine(1.0, [0.0, -1.0]), hh.ShiftedNorm([3.0, 0.0])
        order = [(a, f1), (b, f1), (a, f2), (a, f1)]
        shared = [hh.verify_theorem1(body, fn, FAST) for body, fn in order]
        fresh = [_fresh(body, fn, FAST) for body, fn in order]
        assert shared == fresh

    def test_seed_samples_and_body_key_the_set(self, monkeypatch):
        draws = _count_draws(monkeypatch)
        body, f = half_disk(), hh.Affine(1.0, [0.0, -1.0])
        reseeded = FAST.replace(seed=3)
        # the certificate probes, then a sampled pair's boundary sample
        # before its solid one
        new_set = [("boundary", 512), ("solid", 512),
                   ("boundary", FAST.samples), ("solid", FAST.samples)]
        first = hh.verify_theorem1(body, f, FAST)
        hh.verify_theorem1(body, hh.Affine(2.0, [0.0, -1.0]), FAST)
        assert draws == new_set
        second = hh.verify_theorem1(body, f, reseeded)
        assert draws[4:] == new_set
        # a new sample count on the same body and seed keeps the probes
        hh.hh_via_torsion(body, f, reseeded.replace(samples=1000),
                          boundary_samples=4)
        assert draws[8:] == [("boundary", 1000), ("solid", 1000)]
        # an equal body that is another object draws its own
        hh.verify_theorem1(half_disk(), f, FAST)
        assert draws[10:] == new_set
        assert second != first
        assert second == _fresh(body, f, reseeded)

    @pytest.mark.parametrize("name", ["unit-box-n3", "simplex-n4",
                                      "unit-ball-n3"])
    def test_exact_pair_draws_only_the_probes(self, monkeypatch, name):
        body = presets.body_preset(name)
        fn = presets.harmonic_cubic(body)
        draws = _count_draws(monkeypatch)
        rep = hh.verify_theorem1(body, fn, CFG.replace(samples=30_000))
        assert rep.measured.stderr == rep.bound_stderr == 0.0
        assert draws == [("boundary", 512), ("solid", 512)]

    def test_function_writing_its_input_raises(self):
        body, f = half_disk(), hh.Affine(1.0, [0.0, -1.0])
        expected = _fresh(body, f, FAST)
        for bad in (_WritesInput(1.0, [0.0, -1.0]),
                    hh.PositiveCombination([(1.0, _WritesInput(1.0, [0.0, 0.0]))])):
            with pytest.raises(ValueError, match="read-only"):
                hh.verify_theorem1(body, bad, FAST)
            assert hh.verify_theorem1(body, f, FAST) == expected
        with pytest.raises(ValueError, match="read-only"):
            hh.volume_integral(body, _WritesInput(1.0, [0.0, -1.0]), FAST)
        with pytest.raises(ValueError, match="read-only"):
            hh.boundary_integral(body, _WritesInput(1.0, [0.0, -1.0]), FAST)
        assert hh.verify_theorem1(body, f, FAST) == expected

    def test_function_writing_cubature_nodes_raises(self):
        # the nodes of an exact rule are read-only too
        box = presets.unit_box(2)
        for integral in (hh.volume_integral, hh.boundary_integral):
            with pytest.raises(ValueError, match="read-only"):
                integral(box, _WritesInput(1.0, [0.0, -1.0]), FAST)


_SUITE_CFG = WosConfig(samples=500, seed=11)
_SUITE = [(body, fn) for _bn, body in presets.theorem1_suite(2)
          for _fn, fn in presets.suite_functions(body)]
_SUITE_REPORTS = []


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(len(_SUITE))))
def test_suite_reports_independent_of_call_order(order):
    if not _SUITE_REPORTS:
        _SUITE_REPORTS.extend(hh.verify_theorem1(body, fn, _SUITE_CFG)
                              for body, fn in _SUITE)
    for i in order:
        assert hh.verify_theorem1(*_SUITE[i], _SUITE_CFG) == _SUITE_REPORTS[i]


class TestHhViaTorsion:
    def test_ball_constant_equality_case(self):
        body = cg.Ball([0.0, 0.0], 1.0)
        rep = hh.hh_via_torsion(body, hh.Affine(1.0, [0.0, 0.0]), FAST,
                                boundary_samples=16)
        assert rep.passed
        # pi <= (R/n) * 2 pi with R/n = 1/2: tight up to sampling noise
        assert rep.measured.mean == pytest.approx(math.pi, rel=1e-12)
        assert rep.bound_value == pytest.approx(math.pi, rel=0.15)

    def test_half_disk_affine(self):
        rep = hh.hh_via_torsion(half_disk(), hh.Affine(1.0, [0.0, -1.0]),
                                FAST, boundary_samples=16)
        assert rep.passed

    def test_ellipse_constant(self):
        body = presets.beck_ellipsoid(2)
        rep = hh.hh_via_torsion(body, hh.Affine(1.0, [0.0, 0.0]), FAST,
                                boundary_samples=16)
        assert rep.passed
