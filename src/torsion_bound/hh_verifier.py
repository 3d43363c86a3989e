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

Exact integrals.  A polynomial f (affine, quadratic, harmonic polynomial,
or a positive combination of these) reports its total degree.  Up to
cg.CUBATURE_MAX_DEGREE its solid integral over a ball, ellipsoid, box or
polytope, and its boundary integral over a ball, box or polytope, is a
cubature rule's weighted sum (cg.cubature, cg.boundary_cubature); the
Estimate then has stderr 0, which marks it exact.  Everything else is
sampled: shifted norms and combinations holding one, higher degrees,
ellipsoid boundaries (where a constant f is exact to rounding, as the
area is) and intersections (the half-balls among them).

Shared draws.  Every sample the checks use depends on the body and the
seed, never on f, and is drawn on first use: the 512 interior and 512
boundary certificate probes (keyed by (seed, _TAG_CERT, 1 or 2)), and for
a sampled integral the cfg.samples uniform interior points (seed,
_TAG_VOLUME_INT) or the cfg.samples weighted boundary points (seed,
_TAG_BOUNDARY_INT), with the volume and surface area.  An exact pair
draws only the probes.  Interior points are exact draws, one candidate
per point, except on intersections, which reject from their bounding box.
The volume and area are closed forms except on an intersection other
than a ball cut by one half-space, where they are Monte Carlo estimates
on (cfg.seed, cfg.samples).  The probes of the most recent (body
identity, seed), and the draws made so far for the most recent (body
identity, cfg.seed, cfg.samples), stay in memory, read-only, until a
call with another key replaces them; so checking several functions on
one body draws each sample once and gives the same numbers, bit for bit,
as drawing afresh for each.  The samples, normals excluded, take up to
(2n + 1) cfg.samples floats.  A test function must not write into the
points it is given.

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
from dataclasses import dataclass
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


def certify_subharmonic(body: cg.ConvexBody, fn: SubharmonicFn,
                        seed: int = 0) -> None:
    """Check lap f >= -tol on _CERT_PROBES interior probe points (exact for
    polynomial kinds whose symbolic Laplacian is constant-sign); raises
    CertificateError with a witness on failure.

    The probes are keyed by (seed, probe index) only, and drawn once for
    the most recent body and seed."""
    for anchor in _anchors(fn):
        if cg.contains(body, anchor):
            raise CertificateError("shifted-norm anchor lies inside the body",
                                   anchor)
    pts = _cert_probes(body, seed)[0]
    lap = fn.laplacian(pts)
    worst = int(np.argmin(lap))
    if lap[worst] < -LAPLACIAN_TOL:
        raise CertificateError(
            f"laplacian {lap[worst]:.3e} < 0 at an interior probe",
            pts[worst])


def certify_boundary_nonnegative(body: cg.ConvexBody, fn: SubharmonicFn,
                                 seed: int = 0) -> None:
    """Check f >= -tol on sampled boundary points; raises CertificateError
    with a witness on failure.  The probes are shared as in
    certify_subharmonic."""
    pos = _cert_probes(body, seed)[1]
    vals = fn.value(pos)
    worst = int(np.argmin(vals))
    if vals[worst] < -BOUNDARY_TOL:
        raise CertificateError(
            f"boundary value {vals[worst]:.3e} < 0 at a sampled point",
            pos[worst])


# ---------------------------------------------------------------------------
# integrals


def _exact_rule(rule, body: cg.ConvexBody, fn: SubharmonicFn):
    """The body's cubature of fn's degree (``rule`` is cg.cubature or
    cg.boundary_cubature) when fn is a polynomial; None otherwise."""
    return None if fn.degree is None else rule(body, fn.degree)


def volume_integral(body: cg.ConvexBody, fn: SubharmonicFn,
                    cfg: WosConfig) -> Estimate:
    """The integral of f over the body.

    Exact, with stderr 0, when f is a polynomial (``fn.degree`` is not
    None) of degree at most cg.CUBATURE_MAX_DEGREE on a ball, ellipsoid,
    box or polytope: the weighted sum of f at the nodes of cg.cubature.
    Otherwise the mean of f over uniform interior samples times the body
    volume; both are drawn, on first use, for (body, cfg.seed,
    cfg.samples)."""
    rule = _exact_rule(cg.cubature, body, fn)
    if rule is not None:
        return Estimate.exact(rule[1] @ fn.value(rule[0]))
    s = _sample_set(body, cfg.seed, cfg.samples)
    return product_estimate(Estimate.from_values(fn.value(s.interior)),
                            s.volume)


def boundary_integral(body: cg.ConvexBody, fn: SubharmonicFn,
                      cfg: WosConfig) -> Estimate:
    """The integral of f over the boundary.

    Exact, with stderr 0, as in volume_integral, on balls, boxes and
    polytopes (cg.boundary_cubature); an ellipsoid's boundary has no rule.
    Otherwise the importance-weighted mean of f over boundary samples
    times the surface area; the stderr includes the weight variance (delta
    method on the self-normalized ratio) and the area's, which is 0 but
    on intersections other than half-balls.  A constant f then has
    stderr 0 up to rounding (0 for f = 1).  Samples, weights and area are
    drawn, on first use, for (body, cfg.seed, cfg.samples)."""
    rule = _exact_rule(cg.boundary_cubature, body, fn)
    if rule is not None:
        return Estimate.exact(rule[1] @ fn.value(rule[0]))
    s = _sample_set(body, cfg.seed, cfg.samples)
    pos, wgt = s.boundary
    vals = fn.value(pos)
    wsum = wgt.sum()
    mean = float(np.sum(wgt * vals) / wsum)
    m = len(vals)
    resid = wgt * (vals - mean) / (wsum / m)
    se_mean = float(np.std(resid, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return product_estimate(Estimate(mean, se_mean, m), s.area)


# ---------------------------------------------------------------------------
# the two verification operations


def _certified_integrals(body: cg.ConvexBody, fn: SubharmonicFn,
                         cfg: WosConfig) -> tuple[Estimate, Estimate]:
    """(solid, boundary) integrals of f once both certificates pass.  The
    boundary integral is taken first, so a sampled f draws the boundary
    sample, the largest transient, before the solid one."""
    certify_subharmonic(body, fn, seed=cfg.seed)
    certify_boundary_nonnegative(body, fn, seed=cfg.seed)
    rhs = boundary_integral(body, fn, cfg)
    return volume_integral(body, fn, cfg), rhs


def verify_theorem1(body: cg.ConvexBody, fn: SubharmonicFn,
                    cfg: WosConfig) -> BoundReport:
    """Check int_Omega f <= (sqrt(2)/pi) vol^{1/n} int_dOmega f after both
    certificates pass; the report carries the achieved ratio
    lhs / (vol^{1/n} rhs) for sharpness tracking, with its first-order
    stderr ratio * hypot(rel. stderr of lhs, rel. stderr of the bound);
    both are None when the boundary integral is 0.

    A stderr of 0 marks an exact side: a polynomial f's solid integral on
    a ball, ellipsoid, box or polytope, and its bound on a ball, box or
    polytope (see volume_integral and boundary_integral).  On an ellipsoid
    the bound of a non-constant f stays sampled, as its boundary has no
    rule (its area is a closed form); half-balls and shifted norms are
    sampled on both sides, with the half-ball's volume and area exact.

    Each draw is made on first use and kept for later calls with the same
    body, seed and sample count (see the module docstring): a pair exact
    on both sides draws only the certificate probes, and several
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
                 "boundary_integral_stderr": rhs.stderr})


def hh_via_torsion(body: cg.ConvexBody, fn: SubharmonicFn, cfg: WosConfig,
                   boundary_samples: int = 64) -> BoundReport:
    """Check the sharper intermediate inequality
    int_Omega f <= (max du/dnu) int_dOmega f with the sampled gradient
    maximum; numerically implies the theorem whenever the gradient bound
    also holds.  Certificates and integrals draw as in verify_theorem1,
    and share its draws."""
    lhs, rhs = _certified_integrals(body, fn, cfg)
    grad = wos.max_normal_derivative(body, cfg, boundary_samples)
    bound = grad.estimate.mean * rhs.mean
    bound_se = math.hypot(grad.estimate.stderr * rhs.mean,
                          grad.estimate.mean * rhs.stderr)
    return make_report(
        "hh_via_torsion_gradient", lhs, bound,
        provenance="solid integral <= (max inward normal derivative of the "
                   "torsion function) x boundary integral",
        bound_stderr=bound_se,
        details={"max_gradient": grad.estimate.mean,
                 "max_location": grad.location.tolist(),
                 "boundary_integral": rhs.mean, "fn": fn.to_json()})
