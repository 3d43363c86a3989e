"""End-to-end verification of the solid-mean vs boundary-mean inequality
for subharmonic test functions on convex bodies.

A test function carries two machine-checkable certificates against a given
body: a nonnegative-Laplacian check on interior probes (exact symbolic
Laplacians for polynomial kinds, (n-1)/|x-a| for shifted norms) and a
boundary-nonnegativity check on sampled boundary points.  Functions may be
negative inside the body; only the boundary sign matters.

verify_theorem1 checks   int_Omega f  <=  (sqrt(2)/pi) vol^{1/n} int_dOmega f
and hh_via_torsion checks the sharper intermediate inequality with the
sampled maximum of the torsion function's inward normal derivative.

Exact integrals and quadratures.  A polynomial f (affine, quadratic,
harmonic polynomial, or a positive combination of these) reports its
total degree.  Up to cg.CUBATURE_MAX_DEGREE its solid integral over a
ball, ellipsoid, box or polytope, and its boundary integral over a ball,
box or polytope, is a cubature rule's weighted sum (cg.cubature,
cg.boundary_cubature); the Integral then has stderr 0, which marks it
exact.  A function analytic on the closed body (such a polynomial, a
shifted norm anchored at least one diameter outside, or a positive
combination of these) is otherwise integrated by the rules of degrees 8
and 6 where the body has them, ellipsoid boundaries included
(cg.boundary_quadrature): the value is the degree-8 one and the stderr
the quadrature error |Q_8 - Q_6|.  Everything else is sampled: nearer
anchors, higher degrees, rules larger than cg.CUBATURE_MAX_NODES and
intersections (the half-balls among them).  Each report names the
method of each side.  An integral that is not finite (an overflow of the
float range) raises ValueError.

Shared draws.  Every sample the checks use depends on the body and the
seed, never on f, and is drawn on first use: the 512 interior and 512
boundary certificate probes (keyed by (seed, _TAG_CERT, 1 or 2)), and for
a sampled integral the cfg.samples uniform interior points (seed,
_TAG_VOLUME_INT) or the cfg.samples weighted boundary points (seed,
_TAG_BOUNDARY_INT), with the volume and surface area.  A pair with no
sampled side draws only the probes.  Interior points are exact draws,
one candidate per point, except on intersections, which reject from
their bounding box.  The volume and area are closed forms except on an
intersection other than a ball cut by one half-space, where they are
Monte Carlo estimates on (cfg.seed, cfg.samples).  The probes of the
most recent (body identity, seed), and the draws made so far for the
most recent (body identity, cfg.seed, cfg.samples), stay in memory,
read-only, until a call with another key replaces them; so checking
several functions on one body draws each sample once and gives the same
numbers, bit for bit, as drawing afresh for each.  The samples, normals
excluded, take up to (2n + 1) cfg.samples floats.  A test function must
not write into the points it is given.

JSON schema for functions (fn_from_json raises ValueError on anything
else):

    {"kind": "affine", "constant": c, "linear": [...]}
    {"kind": "quadratic", "center": [...], "constant": c, "linear": [...]}
    {"kind": "harmonic_polynomial", "terms": [{"powers": [..], "coeff": c}]}
        (powers are integers from 0 to 64, and no two terms repeat them)
    {"kind": "shifted_norm", "anchor": [...]}
    {"kind": "positive_combination",
     "terms": [{"weight": w, "fn": {...}}, ...]}
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import convex_geometry as cg
from . import rng
from . import wos_engine as wos
from .analytic_library import GRADIENT_CONSTANT, BoundReport, make_report
from .estimates import Estimate, WosConfig, product_estimate

_TAG_VOLUME_INT = 301
_TAG_BOUNDARY_INT = 302
_TAG_CERT = 303
_CERT_PROBES = 512

BOUNDARY_TOL = 1e-9
LAPLACIAN_TOL = 1e-9
# Largest power of one coordinate in a polynomial term: _poly_eval forms
# x^p by p - 1 multiplications, so an unbounded power is unbounded work.
_MAX_POWER = 64


class CertificateError(ValueError):
    """A subharmonicity or boundary-sign certificate failed; carries the
    witness point."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = np.array(witness, dtype=float)


# ---------------------------------------------------------------------------
# polynomial helpers (terms: {powers tuple: coefficient})


def _poly_eval(terms: dict, X: np.ndarray) -> np.ndarray:
    """Sum of coeff * prod_i x_i^p_i over the terms, at the rows of X.

    Each column power a term uses is formed once per call by repeated
    multiplication: x_i^1 is the column view X[:, i], x_i^p is
    x_i^(p-1) * x_i, and x_i^0 is never formed, so x_i^2 is the correctly
    rounded square.  Only the powers some term uses are kept.  A term's
    monomial is the product of its nonzero factors in ascending column
    order, times its coefficient; a term with all powers zero adds its
    coefficient.  Terms are added in dict order.  X is only read."""
    used: dict = defaultdict(set)  # column -> the nonzero powers terms use
    for powers in terms:
        for i, p in enumerate(powers):
            if p:
                used[i].add(p)
    power = {}  # (column, p) -> x_i^p
    for i, ps in used.items():
        x = xp = X[:, i]
        for p in range(1, max(ps) + 1):
            if p > 1:
                xp = xp * x
            if p in ps:
                power[i, p] = xp
    out = np.zeros(len(X))
    for powers, coeff in terms.items():
        mono = None
        for i, p in enumerate(powers):
            if p:
                mono = power[i, p] if mono is None else mono * power[i, p]
        out += coeff if mono is None else coeff * mono
    return out


def _poly_laplacian(terms: dict, n: int) -> dict:
    out: dict = defaultdict(float)
    for powers, coeff in terms.items():
        for i in range(n):
            p = powers[i]
            if p >= 2:
                reduced = list(powers)
                reduced[i] = p - 2
                out[tuple(reduced)] += coeff * p * (p - 1)
    return {k: v for k, v in out.items() if v != 0.0}


# ---------------------------------------------------------------------------
# test-function kinds


class SubharmonicFn:
    kind: str
    # total degree of a polynomial f, None for any other f
    degree: int | None = None

    def value(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def laplacian(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __call__(self, x):
        return float(self.value(np.asarray(x, dtype=float)[None, :])[0])


class Affine(SubharmonicFn):
    """constant + linear . x; harmonic, hence admissible."""

    kind = "affine"
    degree = 1

    def __init__(self, constant: float, linear):
        self.constant = float(constant)
        self.linear = np.asarray(linear, dtype=float)

    def value(self, X):
        return self.constant + X @ self.linear

    def laplacian(self, X):
        return np.zeros(len(X))

    def to_json(self):
        return {"kind": "affine", "constant": self.constant,
                "linear": self.linear.tolist()}


class Quadratic(SubharmonicFn):
    """|x - center|^2 + linear . x + constant; Laplacian 2n everywhere."""

    kind = "quadratic"
    degree = 2

    def __init__(self, center, constant: float = 0.0, linear=None):
        self.center = np.asarray(center, dtype=float)
        self.constant = float(constant)
        self.linear = (np.zeros_like(self.center) if linear is None
                       else np.asarray(linear, dtype=float))

    def value(self, X):
        d = X - self.center
        return (np.einsum("ij,ij->i", d, d) + X @ self.linear + self.constant)

    def laplacian(self, X):
        return np.full(len(X), 2.0 * self.center.size)

    def to_json(self):
        return {"kind": "quadratic", "center": self.center.tolist(),
                "constant": self.constant, "linear": self.linear.tolist()}


class HarmonicPolynomial(SubharmonicFn):
    """Polynomial given by a term dict {powers tuple: coefficient}, each
    power an integer from 0 to _MAX_POWER; the Laplacian is computed
    symbolically, so harmonicity (or subharmonicity) is checked exactly
    at the certificate probes.  The terms are kept, and added, in sorted
    order of their powers."""

    kind = "harmonic_polynomial"

    def __init__(self, terms: dict, dimension: int):
        self.dimension = int(dimension)
        for powers in terms:
            if len(powers) != self.dimension:
                raise ValueError("term powers must match the dimension")
            if any(not 0 <= p <= _MAX_POWER or p != int(p) for p in powers):
                raise ValueError(f"term powers must be integers from 0 to "
                                 f"{_MAX_POWER}, got {list(powers)}")
        # sorted, as to_json writes them: a JSON round trip then adds the
        # terms in the same order and evaluates bit for bit alike
        self.terms = dict(sorted((tuple(int(p) for p in k), float(v))
                                 for k, v in terms.items()))
        self._laplacian_terms = _poly_laplacian(self.terms, self.dimension)
        self.degree = max(map(sum, self.terms), default=0)

    def value(self, X):
        return _poly_eval(self.terms, X)

    def laplacian(self, X):
        if not self._laplacian_terms:
            return np.zeros(len(X))
        return _poly_eval(self._laplacian_terms, X)

    def to_json(self):
        return {"kind": "harmonic_polynomial",
                "terms": [{"powers": list(p), "coeff": c}
                          for p, c in sorted(self.terms.items())]}


class ShiftedNorm(SubharmonicFn):
    """f(x) = |x - anchor| with the anchor outside the closed body;
    lap f = (n - 1)/|x - anchor| > 0 for n >= 2."""

    kind = "shifted_norm"

    def __init__(self, anchor):
        self.anchor = np.asarray(anchor, dtype=float)

    def value(self, X):
        return np.linalg.norm(X - self.anchor, axis=1)

    def laplacian(self, X):
        return (self.anchor.size - 1) / np.linalg.norm(X - self.anchor, axis=1)

    def to_json(self):
        return {"kind": "shifted_norm", "anchor": self.anchor.tolist()}


class PositiveCombination(SubharmonicFn):
    kind = "positive_combination"

    def __init__(self, parts):
        parts = [(float(w), fn) for w, fn in parts]
        if any(w < 0 for w, _ in parts):
            raise ValueError("combination weights must be nonnegative")
        self.parts = parts

    @property
    def degree(self):
        """The largest degree of the parts when all are polynomials."""
        degrees = [fn.degree for _w, fn in self.parts]
        return None if None in degrees else max(degrees, default=0)

    def value(self, X):
        out = np.zeros(len(X))
        for w, fn in self.parts:
            out += w * fn.value(X)
        return out

    def laplacian(self, X):
        out = np.zeros(len(X))
        for w, fn in self.parts:
            out += w * fn.laplacian(X)
        return out

    def to_json(self):
        return {"kind": "positive_combination",
                "terms": [{"weight": w, "fn": fn.to_json()}
                          for w, fn in self.parts]}


def _json_vector(doc: dict, name: str, what: str, dimension: int) -> list:
    v = cg.json_field(doc, name, what, "numbers")
    if len(v) != dimension:
        raise ValueError(f"{what} field {name!r} must have {dimension} "
                         f"entries, got {len(v)}")
    return v


def fn_from_json(doc, dimension: int) -> SubharmonicFn:
    """The test function a JSON document describes; ValueError on a
    document that is not an object, a missing field, a field of the wrong
    type, a non-finite number or a vector whose length is not
    ``dimension``."""
    doc = cg.json_object(doc, "function document")
    kind = doc.get("kind")
    what = f"{kind} function"
    if kind == "affine":
        return Affine(cg.json_field(doc, "constant", what, "number"),
                      _json_vector(doc, "linear", what, dimension))
    if kind == "quadratic":
        constant = (cg.json_field(doc, "constant", what, "number")
                    if "constant" in doc else 0.0)
        linear = (_json_vector(doc, "linear", what, dimension)
                  if doc.get("linear") is not None else None)
        return Quadratic(_json_vector(doc, "center", what, dimension),
                         constant, linear)
    if kind == "harmonic_polynomial":
        terms = {}
        for t in cg.json_field(doc, "terms", what, "list"):
            t = cg.json_object(t, "polynomial term")
            powers = tuple(cg.json_field(t, "powers", "polynomial term",
                                         "integers"))
            if powers in terms:
                raise ValueError(f"polynomial terms repeat powers {list(powers)}")
            terms[powers] = cg.json_field(t, "coeff", "polynomial term",
                                          "number")
        return HarmonicPolynomial(terms, dimension)
    if kind == "shifted_norm":
        return ShiftedNorm(_json_vector(doc, "anchor", what, dimension))
    if kind == "positive_combination":
        parts = []
        for t in cg.json_field(doc, "terms", what, "list"):
            t = cg.json_object(t, "combination term")
            fn = cg.json_field(t, "fn", "combination term", "object")
            parts.append((cg.json_field(t, "weight", "combination term", "number"),
                          fn_from_json(fn, dimension)))
        return PositiveCombination(parts)
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# the shared draws, each made on first use


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=1)
def _cert_probes(body: cg.ConvexBody, seed: int):
    """(interior, boundary) certificate probe positions of (body, seed)."""
    boundary = body.boundary_arrays(_CERT_PROBES,
                                    rng.derive(seed, _TAG_CERT, 2))[0]
    interior = cg.interior_points(body, _CERT_PROBES,
                                  rng.derive(seed, _TAG_CERT, 1))
    return _read_only(interior, boundary)


@dataclass(frozen=True)
class _SampleSet:
    """What the sampled integrals on one (body, seed, samples) read, each
    drawn on first use: the weighted boundary sample, the uniform solid
    sample, the volume and the surface area.  The arrays are read-only."""

    body: cg.ConvexBody
    cfg: WosConfig

    @cached_property
    def boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights); the normals are not kept."""
        pos, _nrm, wgt = self.body.boundary_arrays(
            self.cfg.samples, rng.derive(self.cfg.seed, _TAG_BOUNDARY_INT))
        return _read_only(pos, wgt)

    @cached_property
    def interior(self) -> np.ndarray:
        return _read_only(cg.interior_points(
            self.body, self.cfg.samples,
            rng.derive(self.cfg.seed, _TAG_VOLUME_INT)))[0]

    @cached_property
    def volume(self) -> Estimate:
        return cg.volume(self.body, self.cfg)

    @cached_property
    def area(self) -> Estimate:
        return cg.surface_area(self.body, self.cfg)


@lru_cache(maxsize=1)
def _sample_set(body: cg.ConvexBody, seed: int, samples: int) -> _SampleSet:
    # the cache drops the last set when it makes this one, before anything
    # is drawn into it, so no two sets are in memory at once
    return _SampleSet(body, WosConfig(samples=samples, seed=seed))


# ---------------------------------------------------------------------------
# certificates


def _anchors(fn: SubharmonicFn) -> list[np.ndarray]:
    """The anchor of every shifted norm in fn, at any combination depth."""
    if isinstance(fn, PositiveCombination):
        return [a for _w, part in fn.parts for a in _anchors(part)]
    return [fn.anchor] if isinstance(fn, ShiftedNorm) else []


def _certify_at(values, pts: np.ndarray, tol: float, what: str,
                where: str) -> None:
    """Check values(pts) >= -tol, taken without numpy warnings; raises
    CertificateError at the least value when it is < -tol, or at the
    first that is not finite (an overflow, or a NaN, which no comparison
    with a tolerance catches)."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = values(pts)
    bad = np.flatnonzero(~np.isfinite(vals))
    worst = bad[0] if bad.size else int(np.argmin(vals))
    if bad.size or vals[worst] < -tol:
        fault = "is not finite" if bad.size else "< 0"
        raise CertificateError(f"{what} {vals[worst]:.3e} {fault} at {where}",
                               pts[worst])


def certify_subharmonic(body: cg.ConvexBody, fn: SubharmonicFn,
                        seed: int = 0) -> None:
    """Check lap f >= -tol on _CERT_PROBES interior probe points (exact for
    polynomial kinds whose symbolic Laplacian is constant-sign); raises
    CertificateError with a witness on failure, a non-finite value
    included.

    The probes are keyed by (seed, probe index) only, and drawn once for
    the most recent body and seed."""
    for anchor in _anchors(fn):
        if cg.contains(body, anchor):
            raise CertificateError("shifted-norm anchor lies inside the body",
                                   anchor)
    _certify_at(fn.laplacian, _cert_probes(body, seed)[0], LAPLACIAN_TOL,
                "laplacian", "an interior probe")


def certify_boundary_nonnegative(body: cg.ConvexBody, fn: SubharmonicFn,
                                 seed: int = 0) -> None:
    """Check f >= -tol on sampled boundary points; raises CertificateError
    with a witness on failure, a non-finite value included.  The probes
    are shared as in certify_subharmonic."""
    _certify_at(fn.value, _cert_probes(body, seed)[1], BOUNDARY_TOL,
                "boundary value", "a sampled point")


# ---------------------------------------------------------------------------
# integrals


@dataclass(frozen=True)
class Integral(Estimate):
    """An integral of f with the method that took it: "exact" (a rule
    exact for f; stderr 0), "quadrature" (the degree-8 rule's value;
    stderr its quadrature error |Q_8 - Q_6|, see _quadrature) or
    "sampled" (a Monte Carlo mean; stderr its standard error)."""

    method: str = field(kw_only=True)


def _anchor_distance(body: cg.ConvexBody, anchor: np.ndarray) -> float:
    """A lower bound on the distance from an outside anchor to the body:
    the larger of -distances_many and |a - m| - h, with m the centre and h
    the half-diagonal of the bounding box.  Both are lower bounds in every
    family (the body lies in its box); the second keeps far anchors of
    elongated bodies, where the first can read far less than the distance
    (2 for a distance of 20 beside Ellipsoid([0, 0], [10, 1]))."""
    lo, hi = body.bounding_box()
    box = (float(np.linalg.norm(anchor - 0.5 * (lo + hi)))
           - 0.5 * float(np.linalg.norm(hi - lo)))
    return max(-float(body.distances_many(anchor[None, :])[0]), box)


def _analytic(body: cg.ConvexBody, fn: SubharmonicFn) -> bool:
    """True when f is analytic on a neighbourhood of the closed body that
    the rules converge on fast: a polynomial of degree at most
    cg.CUBATURE_MAX_DEGREE, a shifted norm whose anchor is at least one
    diameter outside, or a positive combination of these.  The anchor's
    distance is read by _anchor_distance, a lower bound on it in every
    family.  Nearer anchors slow the rules (the difference of two rules
    under-read the error of the finer one at 0.01 diameter), so they are
    sampled."""
    if isinstance(fn, PositiveCombination):
        return all(_analytic(body, part) for _w, part in fn.parts)
    if isinstance(fn, ShiftedNorm):
        return _anchor_distance(body, fn.anchor) >= body.diameter
    return fn.degree is not None and fn.degree <= cg.CUBATURE_MAX_DEGREE


def _quadrature(rule, body: cg.ConvexBody, fn: SubharmonicFn,
                measure: float) -> Integral | None:
    """Q_8 with stderr |Q_8 - Q_6|, or None when the body lacks either
    rule.  Q_K = measure x sum_i w_i f(x_i) / sum_i w_i over the nodes of
    ``rule(body, K)`` (cg.cubature or cg.boundary_quadrature), so f = 1
    gives the measure exactly at both degrees."""
    degrees = (cg.CUBATURE_MAX_DEGREE, cg.CUBATURE_MAX_DEGREE - 2)
    rules = [rule(body, degree) for degree in degrees]
    if any(r is None for r in rules):
        return None
    q8, q6 = (measure * float(np.sum(w * fn.value(x)) / np.sum(w))
              for x, w in rules)
    return Integral(q8, abs(q8 - q6), len(rules[0][1]), method="quadrature")


def _first_method(body: cg.ConvexBody, fn: SubharmonicFn, cfg: WosConfig,
                  boundary: bool) -> Integral:
    """The integral over the boundary or the body by the first method
    that applies: exact, quadrature, sampled."""
    exact, quadrature, measure = (
        (cg.boundary_cubature, cg.boundary_quadrature, body.surface_area_exact)
        if boundary else (cg.cubature, cg.cubature, body.volume_exact))
    rule = None if fn.degree is None else exact(body, fn.degree)
    if rule is not None:
        return Integral(float(rule[1] @ fn.value(rule[0])), 0.0, 0,
                        method="exact")
    if _analytic(body, fn):
        est = _quadrature(quadrature, body, fn, measure())
        if est is not None:
            return est
    est = (_sampled_boundary if boundary else _sampled_solid)(body, fn, cfg)
    return Integral(est.mean, est.stderr, est.samples, est.truncated_fraction,
                    method="sampled")


def _integral(body: cg.ConvexBody, fn: SubharmonicFn, cfg: WosConfig,
              boundary: bool) -> Integral:
    """_first_method taken without numpy warnings; ValueError naming the
    overflow when the value or its stderr is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            est = _first_method(body, fn, cfg, boundary)
        except OverflowError:  # a Python float squared in product_estimate
            est = None
    if est is None or not (math.isfinite(est.mean)
                           and math.isfinite(est.stderr)):
        side = "boundary" if boundary else "solid"
        raise ValueError(f"the {side} integral of f overflows the float "
                         "range")
    return est


def _sampled_solid(body: cg.ConvexBody, fn: SubharmonicFn,
                   cfg: WosConfig) -> Estimate:
    s = _sample_set(body, cfg.seed, cfg.samples)
    return product_estimate(Estimate.from_values(fn.value(s.interior)),
                            s.volume)


def _sampled_boundary(body: cg.ConvexBody, fn: SubharmonicFn,
                      cfg: WosConfig) -> Estimate:
    s = _sample_set(body, cfg.seed, cfg.samples)
    pos, wgt = s.boundary
    vals = fn.value(pos)
    wsum = wgt.sum()
    mean = float(np.sum(wgt * vals) / wsum)
    m = len(vals)
    resid = wgt * (vals - mean) / (wsum / m)
    se_mean = float(np.std(resid, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return product_estimate(Estimate(mean, se_mean, m), s.area)


def volume_integral(body: cg.ConvexBody, fn: SubharmonicFn,
                    cfg: WosConfig) -> Integral:
    """The integral of f over the body, by the first method that applies:

    - exact, with stderr 0, when f is a polynomial (``fn.degree`` is not
      None) of degree at most cg.CUBATURE_MAX_DEGREE on a ball, ellipsoid,
      box or polytope: the weighted sum of f at the nodes of cg.cubature;
    - quadrature when f is analytic on the body (see _analytic: a far
      shifted norm, or a positive combination holding one): Q_8 from the
      cubature rules of degrees 8 and 6, with stderr |Q_8 - Q_6|;
    - sampled otherwise (intersections, near anchors, higher degrees):
      the mean of f over uniform interior samples times the body volume,
      both drawn, on first use, for (body, cfg.seed, cfg.samples).

    A rule larger than cg.CUBATURE_MAX_NODES is not built, and its
    integral is sampled.  ValueError when the value is not finite (an
    overflow of the float range)."""
    return _integral(body, fn, cfg, boundary=False)


def boundary_integral(body: cg.ConvexBody, fn: SubharmonicFn,
                      cfg: WosConfig) -> Integral:
    """The integral of f over the boundary, as volume_integral:

    - exact on balls, boxes and polytopes (cg.boundary_cubature);
    - quadrature for analytic f on those and on ellipsoids, whose
      boundary has no exact rule (cg.boundary_quadrature, normalized by
      the closed-form area, so a constant f is exact with stderr 0);
    - sampled otherwise: the importance-weighted mean of f over boundary
      samples times the surface area.  The stderr includes the weight
      variance (delta method on the self-normalized ratio) and the
      area's, which is 0 but on intersections other than half-balls.  A
      constant f then has stderr 0 up to rounding (0 for f = 1).
      Samples, weights and area are drawn, on first use, for (body,
      cfg.seed, cfg.samples)."""
    return _integral(body, fn, cfg, boundary=True)


# ---------------------------------------------------------------------------
# the two verification operations


def _certified_integrals(body: cg.ConvexBody, fn: SubharmonicFn,
                         cfg: WosConfig) -> tuple[Integral, Integral]:
    """(solid, boundary) integrals of f once both certificates pass.  The
    boundary integral is taken first, so a sampled f draws the boundary
    sample, the largest transient, before the solid one."""
    certify_subharmonic(body, fn, seed=cfg.seed)
    certify_boundary_nonnegative(body, fn, seed=cfg.seed)
    rhs = boundary_integral(body, fn, cfg)
    return volume_integral(body, fn, cfg), rhs


def _finite_bound(bound: float, bound_se: float) -> None:
    """ValueError naming the overflow when the bound or its stderr, products
    of finite integrals, left the float range."""
    if not (math.isfinite(bound) and math.isfinite(bound_se)):
        raise ValueError("the bound on the solid integral overflows the "
                         "float range")


def verify_theorem1(body: cg.ConvexBody, fn: SubharmonicFn,
                    cfg: WosConfig) -> BoundReport:
    """Check int_Omega f <= (sqrt(2)/pi) vol^{1/n} int_dOmega f after both
    certificates pass; the report carries the achieved ratio
    lhs / (vol^{1/n} rhs) for sharpness tracking, with its first-order
    stderr ratio * hypot(rel. stderr of lhs, rel. stderr of the bound);
    both are None when the boundary integral is 0.

    Each side is exact, quadrature or sampled (see volume_integral and
    boundary_integral), and the details name which under ``integrals``
    ({"solid": ..., "boundary": ...}).  A polynomial f is exact on both
    sides of a ball, box or polytope and on an ellipsoid's solid; its
    bound on an ellipsoid is a quadrature (exact for a constant f, as the
    area is a closed form).  A far shifted norm is a quadrature on every
    side of those bodies, its stderr the quadrature error, so the 4-sigma
    pass rule and ratio_stderr stay conservative.  Half-balls are sampled
    on both sides, with their volume and area exact.

    Each draw is made on first use and kept for later calls with the same
    body, seed and sample count (see the module docstring): a pair with
    no sampled side draws only the certificate probes, and several
    functions on one body share every sample."""
    lhs, rhs = _certified_integrals(body, fn, cfg)
    n = body.dimension
    vol = _sample_set(body, cfg.seed, cfg.samples).volume
    root = vol.mean ** (1.0 / n)
    bound = GRADIENT_CONSTANT * root * rhs.mean
    bound_se = math.hypot(
        GRADIENT_CONSTANT * root * rhs.stderr,
        GRADIENT_CONSTANT * rhs.mean * root * vol.stderr / (n * vol.mean)
        if vol.stderr else 0.0)
    _finite_bound(bound, bound_se)
    ratio = ratio_se = None  # undefined when the boundary integral is 0
    if rhs.mean != 0:
        ratio = lhs.mean / (root * rhs.mean)
        ratio_se = math.hypot(lhs.stderr / (root * rhs.mean),
                              ratio * bound_se / bound)
    return make_report(
        "hermite_hadamard", lhs, bound,
        provenance="solid integral <= (sqrt(2)/pi) vol^(1/n) boundary integral "
                   "for subharmonic f, f >= 0 on the boundary",
        bound_stderr=bound_se,
        details={"ratio": ratio, "boundary_integral": rhs.mean,
                 "volume_root": root, "fn": fn.to_json(),
                 "ratio_stderr": ratio_se,
                 "boundary_integral_stderr": rhs.stderr,
                 "integrals": {"solid": lhs.method, "boundary": rhs.method}})


def hh_via_torsion(body: cg.ConvexBody, fn: SubharmonicFn, cfg: WosConfig,
                   boundary_samples: int = 64) -> BoundReport:
    """Check the sharper intermediate inequality
    int_Omega f <= (max du/dnu) int_dOmega f with the sampled gradient
    maximum; numerically implies the theorem whenever the gradient bound
    also holds.  Certificates and integrals are taken as in
    verify_theorem1, share its draws, and are named in the details the
    same way."""
    lhs, rhs = _certified_integrals(body, fn, cfg)
    grad = wos.max_normal_derivative(body, cfg, boundary_samples)
    bound = grad.estimate.mean * rhs.mean
    bound_se = math.hypot(grad.estimate.stderr * rhs.mean,
                          grad.estimate.mean * rhs.stderr)
    _finite_bound(bound, bound_se)
    return make_report(
        "hh_via_torsion_gradient", lhs, bound,
        provenance="solid integral <= (max inward normal derivative of the "
                   "torsion function) x boundary integral",
        bound_stderr=bound_se,
        details={"max_gradient": grad.estimate.mean,
                 "max_location": grad.location.tolist(),
                 "boundary_integral": rhs.mean, "fn": fn.to_json(),
                 "integrals": {"solid": lhs.method, "boundary": rhs.method}})
