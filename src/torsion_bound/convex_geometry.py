"""Convex bodies in R^n with the oracles the samplers consume.

Representations: Ball, axis-aligned Ellipsoid, Box, H-polytope, and the
half-ball (an Intersection of one ball and one half-space).  Each body
answers a signed, certified distance to the boundary (exact for
ball/box/polytope, a safe lower bound for ellipsoids and half-balls — safe
means the inscribed sphere used by the walk-on-spheres step always stays
inside the body), whose sign is its membership, bounding box, volume and
surface area (closed forms for every body), and surface-measure boundary
sampling with per-point importance weights.

Only this module knows how a body's boundary is stratified (the faces of
a box or polytope, the kept cap and flat face of a half-ball; balls and
ellipsoids have no strata).

All sampling is keyed by (seed, candidate index), and every sampler
consumes candidate ids in order through ``_keyed_rejection``, so sample
lists are bit-reproducible and independent of batch sizes.  Balls,
ellipsoids, boxes and polytopes draw their interiors, and polytopes their
faces, exactly: one candidate per returned point.  So do half-balls their
boundary whenever the kept cap is at least a hemisphere, and otherwise
with acceptance twice the cap's share of the sphere.  Half-balls draw
their interiors by bounding-box rejection.

Balls, ellipsoids, boxes and polytopes have cubature rules (``cubature``)
that integrate every polynomial up to CUBATURE_MAX_DEGREE exactly over
the body, and all but ellipsoids over the boundary too
(``boundary_cubature``).  An ellipsoid's boundary has a quadrature for
smooth functions instead (``boundary_quadrature``).  No rule has more
than CUBATURE_MAX_NODES nodes: a larger one is not built.

JSON schema (round-trips losslessly):

    {"dimension": n, "shape": {"type": "ball", "center": [...], "radius": r}}
    {"type": "ellipsoid", "center": [...], "semi_axes": [...]}
    {"type": "box", "lower": [...], "upper": [...]}
    {"type": "polytope", "half_spaces": [{"normal": [...], "offset": c}, ...]}
    {"type": "intersection", "members": [<ball>, <polytope with one half-space>]}

Half-space normals must be unit vectors; the body is {x : a_i . x <= c_i}.
A stand-alone polytope must be bounded (validated by linear programs in
all +-coordinate directions); a single unbounded half-space is only
accepted as the cut of a half-ball.  Any other intersection is rejected;
one of half-spaces and boxes is written as a single polytope.  Linear
programs only validate boundedness and find a polytope's Chebyshev centre
(inradius and interior point); its face tables (areas and the cone
samplers of its faces and interior) come from one qhull vertex
enumeration (``scipy.spatial.HalfspaceIntersection``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError
from scipy.special import betainc, betaincc, roots_jacobi, roots_legendre

from . import rng
from .analytic_library import ball_surface_area, ball_volume, unit_sphere_area
from .estimates import Estimate, WosConfig

_TOL = 1e-12
# A polytope vertex lies on a constraint when it is within
# _VERTEX_TOL x scale + _VERTEX_ROUNDING x size of its hyperplane (scale
# the body's diameter, size its largest vertex coordinate).  qhull's
# vertices miss their own hyperplanes by about 1e-16 x scale, and a vertex
# far from the origin by about eps x size more: its coordinates round at
# that size.  A vertex off a hyperplane lies at least the body's thickness
# from it: 2e-12 x max(scale, size) or more for any polytope the
# constructor accepts in n <= 6.
_VERTEX_TOL = 1e-13
_VERTEX_ROUNDING = 64 * np.finfo(float).eps
# Highest total degree of the cubature rules; each is tested on every
# monomial up to it, and above it the callers sample.
CUBATURE_MAX_DEGREE = 8
# Most nodes a rule may have: a size limit, not an accuracy one.  A rule
# that would have more is not built (``cubature``, ``boundary_cubature``
# and ``boundary_quadrature`` return None) and the callers sample.  The
# largest rule the tests build, random_polytope(4, 40, 1)'s degree-8 solid
# rule, has 211k nodes; random_polytope(5, 50, 1)'s has 11.5M (461 MB).
CUBATURE_MAX_NODES = 2 ** 20
_BATCH = 8192
# trapezoid step and range (in log s, beyond the axis scales) of the
# ellipsoid area integral; see Ellipsoid._area
_AREA_STEP = 0.4
_AREA_PAD = 90.0


class SamplingStarved(RuntimeError):
    """A rejection sampler ran out of candidates: the body (or one of its
    faces) is too thin to sample."""


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point with its inward unit normal."""

    position: np.ndarray
    inward_normal: np.ndarray


class ConvexBody:
    """Base class; concrete bodies implement the array-valued oracles."""

    dimension: int

    # -- membership and distance ------------------------------------------

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Membership in the closed body: the sign of ``distances_many``."""
        return self.distances_many(points) >= 0.0

    def distances_many(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary: >= 0 on the closed body and
        < 0 outside, up to rounding.  Inside it is a certified lower bound
        on the distance, exact where the class docstring says so.  Ball,
        box and polytope distances are exact on both sides, an ellipsoid
        returns b_min (1 - sqrt(q)) <= 0 outside, and a half-ball the
        minimum over its two members.  ``points`` is (k, n) in any layout (a
        walk passes the transpose of its (n, k) positions), and each row's
        bits are the same in any layout, alone or among any rows."""
        raise NotImplementedError

    # -- derived geometry ---------------------------------------------------

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume_exact(self) -> float:
        raise NotImplementedError

    def surface_area_exact(self) -> float:
        raise NotImplementedError

    def inradius(self) -> float:
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def diameter(self) -> float:
        """Upper bound on the diameter (exact for ball/ellipsoid/box)."""
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    # -- sampling -------------------------------------------------------------

    def _interior_batch(self, key: int, ids: np.ndarray):
        """One interior candidate per id: (positions, ok), ok marking the
        candidates inside the body.  Here uniform in the bounding box
        (slots 0..n-1 of counter 0), accepted where ``distances_many`` is
        >= 0, as half-balls draw; bodies with an exact draw override it and
        accept every candidate."""
        lo, hi = self.bounding_box()
        pts = lo + rng.uniforms(key, ids, 0, self.dimension) * (hi - lo)
        return pts, self.contains_many(pts)

    def _boundary_batch(self, key: int, ids: np.ndarray):
        """One boundary candidate per id: (positions, inward normals,
        weights, ok), with E[weight * ok * g(position)] the integral of g
        over the boundary for every g.

        ok marks candidates that lie on this body's boundary.  Here the
        candidates are a mixture of the strata: id i takes stratum k with
        probability frac_k = weight_k / sum(weights) (slot 0 of stream
        (key, 7001)) and draws that stratum's candidate on stream
        (key, 7100 + k); its weight is the candidate's own weight over
        frac_k.  Balls and ellipsoids, which have no strata, override it.
        """
        _tag, weights = self._strata()
        fracs = weights / weights.sum()
        u = rng.uniforms(rng.derive(key, 7001), ids, 0, 1)[:, 0]
        pick = np.minimum(np.searchsorted(np.cumsum(fracs), u, side="right"),
                          len(fracs) - 1)
        pos = np.empty((len(ids), self.dimension))
        nrm = np.empty((len(ids), self.dimension))
        wgt = np.empty(len(ids))
        ok = np.empty(len(ids), dtype=bool)
        for k in range(len(fracs)):
            sel = np.flatnonzero(pick == k)
            if sel.size:
                draw = self._stratum(k, rng.derive(key, 7100 + k))
                pos[sel], nrm[sel], w, ok[sel] = draw(ids[sel])
                wgt[sel] = w / fracs[k]
        return pos, nrm, wgt, ok

    def boundary_arrays(self, count: int, key: int):
        """Exactly ``count`` accepted boundary samples (pos, normal, weight),
        consuming candidate ids in order so the result is batch-invariant."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return _keyed_rejection(lambda ids: self._boundary_batch(key, ids),
                                count, _BATCH, 100_000_000,
                                "boundary sampling starved (acceptance ~ 0)")

    # -- stratified boundary sampling ---------------------------------------

    def _strata(self) -> tuple[int, np.ndarray] | None:
        """(stream tag, weights) of the body's boundary strata, or None
        when it has none.  The weights set each stratum's share of both
        samplers: a face's area, or a half-ball's cap or flat face area.
        A body with strata defines
        ``_stratum(index, key)``: the candidate draw of one stratum, ids ->
        (positions, inward normals, weights, ok) with
        E[weight * ok * g(position)] the integral of g over that stratum.
        ``_boundary_batch`` mixes these draws, and ``stratified_boundary``
        runs each through ``_keyed_rejection``."""
        return None

    def stratified_boundary(self, count: int, key: int):
        """``count`` boundary points (positions, inward normals), stratum by
        stratum: each stratum gets exactly its ``_largest_remainder`` share
        of ``count`` by weight (at least one point when ``count`` allows),
        drawn through ``_keyed_rejection`` on its own stream (key, tag,
        index).  A body without strata samples its whole boundary."""
        strata = self._strata()
        if strata is None:
            return self.boundary_arrays(count, key)[:2]
        tag, weights = strata
        parts = [_keyed_rejection(self._stratum(i, rng.derive(key, tag, i)),
                                  cnt, 4 * cnt + 64, 1_000_000,
                                  "stratum sampling starved")[:2]
                 for i, cnt in enumerate(_largest_remainder(weights, count))
                 if cnt]
        pos, nrm = zip(*parts)
        return np.concatenate(pos), np.concatenate(nrm)

    # -- exact cubature -----------------------------------------------------

    def _cubature(self, degree: int):
        """(nodes, weights) with sum_i w_i f(x_i) the integral of f over
        the body for every polynomial f of total degree <= degree, or None
        when the body has no rule (half-balls)."""
        return None

    def _boundary_cubature(self, degree: int):
        """The same over the boundary, or None (ellipsoids, half-balls)."""
        return None

    def _boundary_quadrature(self, degree: int):
        """(nodes, weights) whose weighted sum converges to the integral of
        a smooth f over the boundary as degree grows, or None: the exact
        rule where the body has one."""
        return self._boundary_cubature(degree)

    # -- serialization ---------------------------------------------------

    def shape_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.dimension})"


def _keyed_rejection(draw, count: int, batch: int, limit: int, starved: str):
    """Exactly ``count`` accepted candidates.

    ``draw(ids)`` returns arrays with one row per candidate id, then a
    mask of the accepted rows.  Ids are consumed in order from 0, so the
    accepted rows do not depend on how the ids are batched.  A call asks
    for the ids still missing, at most ``batch``, as long as every
    candidate so far was accepted, and for ``batch`` ids otherwise: an
    exact draw takes one candidate per returned row.  Raises
    SamplingStarved(``starved``) once more than ``limit`` ids were drawn
    without filling ``count``.
    """
    parts = []
    collected = 0
    next_id = 0
    size = min(batch, count)
    while collected < count:
        if next_id > limit:
            raise SamplingStarved(starved)
        ids = np.arange(next_id, next_id + size, dtype=np.uint64)
        next_id += size
        *arrays, ok = draw(ids)
        exact = ok.all()
        if not exact:
            arrays = [a.compress(ok, axis=0) for a in arrays]
        parts.append(arrays)
        collected += len(arrays[0])
        size = min(batch, count - collected) if exact else batch
    return tuple(np.concatenate(col)[:count] for col in zip(*parts))


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Allocate ``total`` integer counts proportional to weights."""
    share = weights / weights.sum() * total
    counts = np.floor(share).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(share - counts)[::-1]
        counts[order[:short]] += 1
    # give every stratum at least one sample when the budget allows
    while total >= len(weights) and (counts == 0).any():
        donor = int(np.argmax(counts))
        counts[int(np.argmin(counts))] += 1
        counts[donor] -= 1
    return counts


def _as_vector(x, n: int, name: str = "point") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have dimension {n}, got shape {v.shape}")
    return v


def _sum_squares(cols) -> np.ndarray:
    """sum_j cols[j]^2 by coordinates, in the order of ``einsum("ij,ij->i")``
    on C-ordered rows (two-lane vectors): even and odd coordinates in two
    sums, blocks of eight last term first.  So they keep its bits."""
    full = len(cols) // 8 * 8
    lanes = [None, None]
    for j in [b + i for b in range(0, full, 8) for i in (6, 7, 4, 5, 2, 3, 0, 1)
              ] + list(range(full, len(cols))):
        sq, acc = cols[j] * cols[j], lanes[j % 2]
        lanes[j % 2] = sq if acc is None else np.add(sq, acc, out=sq)
    return lanes[0] + lanes[1]


def _unit_ball_points(key: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Uniform points of the unit ball, one per id: a direction (counter
    0) times U^(1/n), U slot 0 of counter 1, in C-ordered rows.  The ids
    are keyed once."""
    keys = rng.unit_keys(key, ids)
    radius = rng.draw_uniforms(keys, 1, 1) ** (1.0 / n)
    return np.multiply(rng.draw_unit_vectors(keys, 0, n), radius, order="C")


# ---------------------------------------------------------------------------
# Exact cubature: reference rules, exact for every polynomial of total
# degree <= degree.  Each takes degree // 2 + 1 Gauss points per
# one-dimensional factor (exact to degree 2 (degree // 2) + 1).


class _RuleTooLarge(Exception):
    """A rule would have more than CUBATURE_MAX_NODES nodes; ``_rule``
    turns it into None."""


def _check_size(nodes: int) -> None:
    """Raise _RuleTooLarge before a rule of ``nodes`` nodes is built."""
    if nodes > CUBATURE_MAX_NODES:
        raise _RuleTooLarge


@lru_cache(maxsize=None)
def _interval_rule(degree: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = roots_legendre(degree // 2 + 1)
    return 0.5 * (x + 1.0), 0.5 * w


def _tensor_rule(lower: np.ndarray, upper: np.ndarray, degree: int):
    """Tensor Gauss-Legendre rule on the box [lower, upper]."""
    _check_size((degree // 2 + 1) ** len(lower))
    x, w = _interval_rule(degree)
    ext = upper - lower
    grids = np.meshgrid(*[lo + e * x for lo, e in zip(lower, ext)],
                        indexing="ij")
    weights = np.ones(())
    for e in ext:
        weights = np.multiply.outer(weights, e * w)
    return np.column_stack([g.ravel() for g in grids]), weights.ravel()


@lru_cache(maxsize=None)
def _sphere_rule(n: int, degree: int):
    """Nodes and weights on the unit sphere S^(n-1).  On the circle,
    degree + 1 equally spaced points.  For n >= 3, x = (t, sqrt(1 - t^2) y)
    with y on S^(n-2): the surface measure is (1 - t^2)^((n-3)/2) dt
    d(sigma_(n-2)), so a Gauss-Jacobi rule in t times the rule on S^(n-2).
    A monomial odd in y integrates to 0 on the inner rule; the others are
    polynomials in t of degree <= degree."""
    _check_size((degree + 1) * (degree // 2 + 1) ** (n - 2))
    if n == 2:
        theta = 2.0 * math.pi * np.arange(degree + 1) / (degree + 1)
        return (np.column_stack((np.cos(theta), np.sin(theta))),
                np.full(degree + 1, 2.0 * math.pi / (degree + 1)))
    a = 0.5 * (n - 3)
    t, wt = roots_jacobi(degree // 2 + 1, a, a)
    y, wy = _sphere_rule(n - 1, degree)
    ring = np.sqrt((1.0 - t) * (1.0 + t))
    nodes = np.hstack((np.repeat(t, len(y))[:, None],
                       (ring[:, None, None] * y).reshape(-1, n - 1)))
    return nodes, np.outer(wt, wy).ravel()


@lru_cache(maxsize=None)
def _ball_rule(n: int, degree: int):
    """Nodes and weights on the unit ball: radius r = (1 + s)/2 from a
    Gauss-Jacobi rule in s with weight (1 + s)^(n-1), so r^(n-1) dr, times
    the sphere rule."""
    _check_size((degree + 1) * (degree // 2 + 1) ** (n - 1))
    s, ws = roots_jacobi(degree // 2 + 1, 0.0, n - 1.0)
    y, wy = _sphere_rule(n, degree)
    nodes = (0.5 * (1.0 + s)[:, None, None] * y).reshape(-1, n)
    return nodes, np.outer(ws / 2.0 ** n, wy).ravel()


@lru_cache(maxsize=None)
def _simplex_rule(d: int, degree: int):
    """Grundmann-Moeller rule of degree 2s + 1, s = degree // 2, on a
    d-simplex (A. Grundmann & H. M. Moeller, SIAM J. Numer. Anal. 15,
    1978, Theorem 4): barycentric coordinates (one row per node) and
    weights summing to 1.  For i = 0..s and every beta in N^(d+1) with
    |beta| = s - i, the node (2 beta + 1)/(2s + 1 + d - 2i) has weight
    (-1)^i (2s + 1 + d - 2i)^(2s+1) d! / (4^s i! (2s + 1 + d - i)!).
    The weights alternate in sign with i; CUBATURE_MAX_DEGREE keeps the
    cancellation below 1e-13 relative."""
    s = degree // 2
    top = 2 * s + 1
    bary, weights = [], []
    for i in range(s + 1):
        # a quotient of exact integers, correctly rounded
        w = ((-1) ** i * (top + d - 2 * i) ** top * math.factorial(d)
             / (4 ** s * math.factorial(i) * math.factorial(top + d - i)))
        for picks in combinations_with_replacement(range(d + 1), s - i):
            beta = np.bincount(np.array(picks, dtype=int), minlength=d + 1)
            bary.append((2 * beta + 1) / (top + d - 2 * i))
            weights.append(w)
    return np.array(bary), np.array(weights)


def _check_simplices(nodes, d: int, degree: int) -> None:
    """Raise _RuleTooLarge when the simplex rule on the d-simplices of the
    lattice ``nodes`` would be too large, counting them before any is
    listed."""
    _check_size(sum(node.simplex_count for node in nodes)
                * len(_simplex_rule(d, degree)[1]))


def _simplices_rule(simplices, degree: int):
    """The simplex rule on each of ``simplices``, the vertices (k, d + 1, n)
    and d-measures (k,) a lattice node lists, weighted by the measures."""
    vertices, measures = simplices
    bary, w = _simplex_rule(vertices.shape[1] - 1, degree)
    nodes = np.einsum("qj,kjn->kqn", bary, vertices)
    return nodes.reshape(-1, vertices.shape[2]), np.outer(measures, w).ravel()


class Ball(ConvexBody):
    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or center.size < 2:
            raise ValueError("ball center must be a vector of dimension >= 2")
        if not (np.all(np.isfinite(center)) and math.isfinite(radius)):
            raise ValueError("ball center and radius must be finite")
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dimension = center.size

    def distances_many(self, points):
        return self.radius - np.sqrt(_sum_squares(
            [x - c for x, c in zip(points.T, self.center)]))

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume_exact(self):
        return ball_volume(self.dimension, self.radius)

    def surface_area_exact(self):
        return ball_surface_area(self.dimension, self.radius)

    def inradius(self):
        return self.radius

    def interior_point(self):
        return self.center.copy()

    @cached_property
    def diameter(self):
        return 2.0 * self.radius

    def _interior_batch(self, key, ids):
        return (self.center + self.radius * _unit_ball_points(key, ids,
                                                              self.dimension),
                np.ones(len(ids), dtype=bool))

    def _boundary_batch(self, key, ids):
        dirs = rng.unit_vectors(key, ids, 0, self.dimension)
        pos = self.center + self.radius * dirs
        wgt = np.full(len(ids), self.surface_area_exact())
        return pos, -dirs, wgt, np.ones(len(ids), dtype=bool)

    def _cubature(self, degree):
        y, w = _ball_rule(self.dimension, degree)
        return self.center + self.radius * y, w * self.radius ** self.dimension

    def _boundary_cubature(self, degree):
        y, w = _sphere_rule(self.dimension, degree)
        return (self.center + self.radius * y,
                w * self.radius ** (self.dimension - 1))

    def shape_json(self):
        return {"type": "ball", "center": self.center.tolist(),
                "radius": self.radius}


class Ellipsoid(ConvexBody):
    """Axis-aligned ellipsoid {x : sum ((x_i - c_i)/b_i)^2 <= 1}.

    distances_many returns a certified lower bound on the distance.  With
    y = x - c, q = sum (y_i/b_i)^2, g = |y / b^2| and gap = 1 - q, an
    interior point (q < 1) gets

        r(y) = gap / (g + sqrt(g^2 + gap / b_min^2)),

    the positive root of r^2/b_min^2 + 2 g r = gap.  Proof: a boundary
    point p with |p - y| = r has 1 = q + 2 (y/b^2).(p - y)
    + sum (p_i - y_i)^2/b_i^2 <= q + 2 g r + r^2/b_min^2, so no boundary
    point is nearer than r(y).  As g <= sqrt(q)/b_min, r(y) is at least
    b_min (1 - sqrt(q)); the two are equal, and exact, at the center and
    along the shortest axis.  Written out, r(y) = b_min sqrt(1 - y.M y)
    - b_min^2 g with M = diag((b_i^2 - b_min^2)/b_i^4): a concave root
    minus a norm, so r is concave inside the ellipsoid.
    That form cancels near the boundary, where walks take most of their
    steps; the rationalized one keeps full precision there.  Points with
    q >= 1 get b_min (1 - sqrt(q)) <= 0, and -b_min (1 - sqrt(q)) is a
    lower bound on their distance: such a point lies on the boundary of
    sqrt(q) E, while for r < sqrt(q) - 1 every point within r b_min of E
    lies in (1 + r) E, inside sqrt(q) E.

    The solid has exact cubature (the unit ball's rule scaled by b).  The
    boundary has none, as the surface Jacobian prod(b) |theta / b| of
    x = c + b theta is not a polynomial on the sphere; its quadrature
    (``boundary_quadrature``) is the sphere rule weighted by that
    Jacobian, the same weight the boundary sampler gives its points.
    """

    def __init__(self, center, semi_axes):
        center = np.asarray(center, dtype=float)
        semi_axes = np.asarray(semi_axes, dtype=float)
        if center.ndim != 1 or center.size < 2:
            raise ValueError("ellipsoid center must be a vector of dimension >= 2")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(semi_axes))):
            raise ValueError("ellipsoid center and semi_axes must be finite")
        if semi_axes.shape != center.shape or np.any(semi_axes <= 0):
            raise ValueError("semi_axes must be positive and match the center")
        self.center = center
        self.semi_axes = semi_axes
        self.dimension = center.size

    def distances_many(self, points):
        # scaled by b_min: r = b_min gap / (h + sqrt(h^2 + gap)), h = b_min g
        b = self.semi_axes
        b_min = b.min()
        z = [(x - c) / bj for x, c, bj in zip(points.T, self.center, b)]
        q = _sum_squares(z)
        h2 = _sum_squares([zj * s for zj, s in zip(z, b_min / b)])
        gap = 1.0 - q
        r = np.maximum(gap, 0.0)
        r += h2
        np.sqrt(r, out=r)
        r += np.sqrt(h2)
        np.divide(b_min * gap, r, out=r)
        outside = gap <= 0.0
        if outside.any():
            r[outside] = b_min * (1.0 - np.sqrt(q[outside]))
        return r

    def bounding_box(self):
        return self.center - self.semi_axes, self.center + self.semi_axes

    def volume_exact(self):
        return ball_volume(self.dimension, 1.0) * float(np.prod(self.semi_axes))

    def surface_area_exact(self):
        return self._area

    @cached_property
    def _area(self):
        """(prod b_i) |S^(n-1)| E sqrt(g' A g) / E|g|, g standard Gaussian
        and A = diag(b_i^-2): the sphere's surface Jacobian (the weight of
        ``_boundary_batch``) averaged over directions g / |g|, which are
        independent of |g|.  As sqrt(q) = (2 sqrt pi)^-1 int_0^inf
        (1 - e^(-s q)) s^(-3/2) ds,

            E sqrt(g' A g) = (2 sqrt pi)^-1 int_0^inf
                             (1 - prod_i (1 + 2 s / b_i^2)^(-1/2)) s^(-3/2) ds,

        taken by the trapezoid rule in v = log s.  The integrand decays
        like e^(-|v|/2) on both sides and is analytic in |Im v| < pi, so
        steps of _AREA_STEP over _AREA_PAD beyond the axis scales
        log(b_i^2 / 2) leave about 1e-20 of truncation and discretization
        error.  The nodes are mid + k h, mid between the scales, so those
        that carry the integral are placed to rounding; counted from the
        end of the range, 90 from zero, they were off by about 1e-14, and
        so was the area."""
        b = self.semi_axes
        n = self.dimension
        scales = np.log(0.5 * b * b)
        lo = float(scales.min()) - _AREA_PAD
        hi = float(scales.max()) + _AREA_PAD
        mid = 0.5 * (lo + hi)
        k = np.arange(math.floor((lo - mid) / _AREA_STEP),
                      math.ceil((hi - mid) / _AREA_STEP) + 1)
        s = np.exp(mid + _AREA_STEP * k)
        log_mgf = np.zeros_like(s)  # -2 log E e^(-s g'Ag)
        for bi in b:
            log_mgf += np.log1p(2.0 * s / (bi * bi))
        integral = _AREA_STEP * float(np.sum(-np.expm1(-0.5 * log_mgf)
                                             / np.sqrt(s)))
        # |S^(n-1)| / (2 sqrt pi E|g|) = pi^((n-1)/2) / (sqrt 2 Gamma((n+1)/2))
        scale = math.exp(0.5 * (n - 1) * math.log(math.pi)
                         - math.lgamma(0.5 * (n + 1))) / math.sqrt(2.0)
        return float(np.prod(b)) * scale * integral

    def inradius(self):
        return float(self.semi_axes.min())

    def interior_point(self):
        return self.center.copy()

    @cached_property
    def diameter(self):
        return 2.0 * float(self.semi_axes.max())

    def _interior_batch(self, key, ids):
        # the axis scaling of the unit ball's draw
        return (self.center + self.semi_axes * _unit_ball_points(
                    key, ids, self.dimension),
                np.ones(len(ids), dtype=bool))

    def _jacobian(self, z):
        """Surface Jacobian of the map z -> c + b z from the unit sphere,
        prod(b) |z / b|, at the rows of z."""
        return (float(np.prod(self.semi_axes))
                * np.linalg.norm(z / self.semi_axes, axis=1))

    def _boundary_batch(self, key, ids):
        z = rng.unit_vectors(key, ids, 0, self.dimension)
        pos = self.center + self.semi_axes * z
        wgt = unit_sphere_area(self.dimension) * self._jacobian(z)
        grad = (pos - self.center) / self.semi_axes**2
        nrm = -grad / np.linalg.norm(grad, axis=1)[:, None]
        return pos, nrm, wgt, np.ones(len(ids), dtype=bool)

    def _cubature(self, degree):
        # the axis scaling of the unit ball's rule; the boundary has none,
        # as its surface Jacobian is not a polynomial
        y, w = _ball_rule(self.dimension, degree)
        return (self.center + self.semi_axes * y,
                w * float(np.prod(self.semi_axes)))

    def _boundary_quadrature(self, degree):
        y, w = _sphere_rule(self.dimension, degree)
        return self.center + self.semi_axes * y, w * self._jacobian(y)

    def shape_json(self):
        return {"type": "ellipsoid", "center": self.center.tolist(),
                "semi_axes": self.semi_axes.tolist()}


class Box(ConvexBody):
    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or lower.size < 2:
            raise ValueError("box corners must be vectors of dimension >= 2")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box corners must be finite")
        if lower.shape != upper.shape or np.any(upper <= lower):
            raise ValueError("box must satisfy lower < upper componentwise")
        self.lower = lower
        self.upper = upper
        self.dimension = lower.size

    # One coordinate at a time, along the points' columns: numpy reduces
    # a row of n values slowly, and min is exact.
    def distances_many(self, points):
        d = np.full(len(points), np.inf)
        for x, lo, hi in zip(points.T, self.lower, self.upper):
            np.minimum(d, np.minimum(x - lo, hi - x), out=d)
        return d

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def volume_exact(self):
        return float(np.prod(self.upper - self.lower))

    def surface_area_exact(self):
        ext = self.upper - self.lower
        vol = float(np.prod(ext))
        return float(2.0 * np.sum(vol / ext))

    def inradius(self):
        return 0.5 * float((self.upper - self.lower).min())

    def interior_point(self):
        return 0.5 * (self.lower + self.upper)

    def _interior_batch(self, key, ids):
        pts = self.lower + rng.uniforms(key, ids, 0, self.dimension) \
            * (self.upper - self.lower)
        return pts, np.ones(len(ids), dtype=bool)

    @cached_property
    def _face_table(self):
        """(axis, side, area, inward normal) per face."""
        ext = self.upper - self.lower
        vol = float(np.prod(ext))
        faces = []
        for k in range(self.dimension):
            for side in (0, 1):
                nrm = np.zeros(self.dimension)
                nrm[k] = 1.0 if side == 0 else -1.0
                faces.append((k, side, vol / ext[k], nrm))
        return faces

    def _strata(self):
        return 31, np.array([f[2] for f in self._face_table])

    def _stratum(self, index, key):
        k, side, area, normal = self._face_table[index]
        other = [j for j in range(self.dimension) if j != k]

        def draw(ids):
            # slots 1..n-1 place the point on the face
            u = rng.uniforms(key, ids, 0, self.dimension)
            pos = np.empty((len(ids), self.dimension))
            pos[:, other] = self.lower[other] + u[:, 1:] \
                * (self.upper[other] - self.lower[other])
            pos[:, k] = self.lower[k] if side == 0 else self.upper[k]
            return (pos, np.tile(normal, (len(ids), 1)), np.full(len(ids), area),
                    np.ones(len(ids), dtype=bool))
        return draw

    def _cubature(self, degree):
        return _tensor_rule(self.lower, self.upper, degree)

    def _boundary_cubature(self, degree):
        _check_size(2 * self.dimension
                    * (degree // 2 + 1) ** (self.dimension - 1))
        nodes, weights = [], []
        for k, side, _area, _normal in self._face_table:
            other = [j for j in range(self.dimension) if j != k]
            face, w = _tensor_rule(self.lower[other], self.upper[other], degree)
            pos = np.empty((len(face), self.dimension))
            pos[:, other] = face
            pos[:, k] = self.lower[k] if side == 0 else self.upper[k]
            nodes.append(pos)
            weights.append(w)
        return np.concatenate(nodes), np.concatenate(weights)

    def shape_json(self):
        return {"type": "box", "lower": self.lower.tolist(),
                "upper": self.upper.tolist()}


# ---------------------------------------------------------------------------
# H-polytopes


def _chebyshev_center(A: np.ndarray, c: np.ndarray):
    """Chebyshev center and radius of {x : A x <= c} with unit rows.
    Returns (None, 0.0) when infeasible; raises on an unbounded radius."""
    m, d = A.shape
    A_ub = np.hstack([A, np.ones((m, 1))])
    res = linprog(np.concatenate([np.zeros(d), [-1.0]]), A_ub=A_ub, b_ub=c,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    if res.status == 2:
        return None, 0.0
    if res.status != 0:
        raise ValueError("polytope admits arbitrarily large inscribed balls "
                         "(unbounded)")
    return res.x[:d], float(res.x[d])


def _coordinate_range(A, c, k: int, sign: float) -> float:
    """sup of sign * x_k over {A x <= c}; +inf when unbounded."""
    d = A.shape[1]
    obj = np.zeros(d)
    obj[k] = -sign
    res = linprog(obj, A_ub=A, b_ub=c, bounds=[(None, None)] * d, method="highs")
    if res.status == 3:
        return math.inf
    if res.status != 0:
        raise ValueError("empty polytope")
    return float(sign * res.x[k])


def _slacks(A, c, points):
    """min_i (c_i - a_i . x) per point: a gemm, whose sums do not hang on
    the layout (gemv's do, so one face takes C-ordered points), then the
    min along the rows of its transpose (min is exact)."""
    if len(A) == 1:
        points = np.ascontiguousarray(points)
    q = np.ascontiguousarray((points @ A.T).T)
    return np.subtract(c[:, None], q, out=q).min(axis=0)


def _hrep_bbox(A, c):
    """Bounding box of {A x <= c}.  One constraint {a . x <= c} bounds x_k
    only when a = a_k e_k: above by c / a_k when a_k > 0, below when
    a_k < 0; more constraints take a linear program per side."""
    d = A.shape[1]
    if len(c) == 1:
        lo, hi = np.full(d, -math.inf), np.full(d, math.inf)
        axes = np.flatnonzero(A[0])
        if len(axes) == 1:
            k = axes[0]
            (hi if A[0, k] > 0.0 else lo)[k] = c[0] / A[0, k]
        return lo, hi
    lo = np.array([-_coordinate_range(A, c, k, -1.0) for k in range(d)])
    hi = np.array([_coordinate_range(A, c, k, 1.0) for k in range(d)])
    return lo, hi


def _face_subsystem(A, c, i):
    """Constraints of face i expressed in the orthonormal chart Q of its
    hyperplane given by ``_complement(a_i)``: returns (basis Q, plane
    point p, A', c', rows), where rows are the indices of A's constraints
    kept in A', or None if the face is cut away entirely."""
    a = A[i]
    Q = _complement(a)
    p = c[i] * a
    rows = np.flatnonzero(np.arange(len(c)) != i)
    A2 = A[rows] @ Q
    c2 = c[rows] - A[rows] @ p
    norms = np.linalg.norm(A2, axis=1)
    keep = norms > 1e-9
    for j in np.nonzero(~keep)[0]:
        if c2[j] < -1e-9:
            return None  # a parallel constraint excludes the whole plane
    A2 = A2[keep] / norms[keep, None]
    c2 = c2[keep] / norms[keep]
    return Q, p, A2, c2, rows[keep]


def _complement(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis (d, d-1) of the complement of the unit vector
    a: the columns but k of the Householder reflection mapping e_k to
    -sign(a_k) a, k the largest entry of |a|."""
    k = int(np.argmax(np.abs(a)))
    w = a.copy()
    w[k] += math.copysign(1.0, a[k])
    H = np.eye(len(a)) - np.outer(w, w / (1.0 + abs(a[k])))
    return np.delete(H, k, axis=1)


def _facets(on, ids, d: int, maximal: bool = False):
    """(j, vertex mask, key) of each facet of a d-polytope, from the
    incidence of its vertices (on[k, j]: vertex k lies on constraint j)
    and their ids.  A constraint holding at least d vertices may bound a
    facet.  One touching the body only along a lower face holds a vertex
    set of lower dimension, which _face_lattice measures as about 0; with
    ``maximal`` it is dropped instead, as another constraint holds a
    strict superset of its vertices.  Polytope.faces asks for that; in
    the recursion the check costs more than measuring the rare degenerate
    sets (filling a 6-D polytope's faces took 40% longer).  Each is keyed
    by d and the ids of its vertices: one vertex set is a (d-1)-face in
    one chart and a degenerate set in a chart of another dimension.  Of
    constraints holding the same vertices (coincident on the body) only
    the first is kept, so a redundant constraint touching a facet's
    boundary is not counted twice."""
    cols = np.flatnonzero(on.sum(axis=0) >= d)
    if maximal:
        held = on[:, cols].astype(float)
        missing = held.T @ (1.0 - held)  # [j, k]: vertices on j but off k
        cols = cols[~((missing == 0.0) & (missing.T > 0.0)).any(axis=1)]
    seen = set()
    for j in cols:
        sel = on[:, j]
        key = (d, ids[sel].tobytes())
        if key not in seen:
            seen.add(key)
            yield j, sel, key


@dataclass(frozen=True)
class _Simplex:
    """A simplicial face (a segment included), given by its d + 1
    vertices in space and its d-measure.  A uniform point is the flat
    Dirichlet combination of the vertices, with weights from d + 1
    exponentials -log u."""

    vertices: np.ndarray    # (d + 1, n)
    measure: float
    simplex_count = 1       # simplices in simplices()

    @property
    def slots(self) -> int:
        return len(self.vertices)

    def simplices(self):
        """(vertices (1, d + 1, n), measures (1,)): the face itself."""
        return self.vertices[None], np.array([self.measure])

    def draw(self, u: np.ndarray, slot: int) -> np.ndarray:
        """One uniform point per row of u, from its columns slot on."""
        e = -np.log(u[:, slot:slot + len(self.vertices)])
        # column by column, so every row rounds alike in any batch
        total = e[:, 0].copy()
        for k in range(1, e.shape[1]):
            total += e[:, k]
        pts = (e[:, 0] / total)[:, None] * self.vertices[0]
        for k in range(1, e.shape[1]):
            pts += (e[:, k] / total)[:, None] * self.vertices[k]
        return pts


@dataclass(frozen=True)
class _Cone:
    """A d-face that is not a simplex, as the union of the cones from its
    vertex centroid (the apex) over its facets F_j, at heights h_j =
    c_j - a_j . apex > 0 in the face's chart; the cone over F_j measures
    h_j |F_j| / d.  A uniform point picks a cone by its share of the
    measure (column slot of u), draws y uniformly on its F_j (columns
    slot + 2 on), and returns apex + U^(1/d) (y - apex), U column slot + 1."""

    dim: int
    apex: np.ndarray        # (n,)
    heights: np.ndarray     # h_j
    facets: tuple           # the facets' nodes, _Simplex or _Cone
    measure: float          # sum_j h_j |F_j| / d
    cum: np.ndarray         # cumulative shares of the cones, last 1.0
    slots: int              # uniforms a draw takes
    simplex_count: int      # simplices in simplices()

    def simplices(self):
        """(vertices (k, d + 1, n), measures (k,)) of its simplices: the
        apex joined to each facet simplex of measure m, measuring h_j m / d."""
        parts = [f.simplices() for f in self.facets]
        return (np.concatenate([np.insert(v, 0, self.apex, axis=1)
                                for v, _m in parts]),
                np.concatenate([h * m / self.dim
                                for h, (_v, m) in zip(self.heights, parts)]))

    def draw(self, u: np.ndarray, slot: int) -> np.ndarray:
        pick = np.searchsorted(self.cum, u[:, slot], side="right")
        y = np.empty((len(u), self.apex.size))
        for j in np.unique(pick):
            sel = pick == j
            y[sel] = self.facets[j].draw(u[sel], slot + 2)
        s = u[:, slot + 1] ** (1.0 / self.dim)
        return self.apex + s[:, None] * (y - self.apex)


def _face_lattice(A, c, Y, on, ids, vertices, memo, maximal=False):
    """(node, facets) of the bounded {y : A y <= c} with vertices Y (one
    per row, in its chart), their incidence ``on`` and ids (as in _facets,
    which gets ``maximal``); facets lists the (constraint, node) pairs the
    node is built on.  The node draws the face uniformly in space
    (``vertices[ids]`` are its vertices there) and carries its measure,
    the divergence identity vol = (1/d) sum_j (c_j - a_j . x0) |facet_j|
    over the terms > 0, x0 the vertex centroid: a _Simplex when it has
    d + 1 vertices (a segment always), else the _Cone from x0.  It is None
    when no term is > 0, as for vertices spanning fewer than d dimensions
    (x0 lies on each constraint holding them all).  ``memo`` keeps each
    face's node under its key, so a shared face is measured once."""
    d = A.shape[1]
    if d == 1:
        ends = ids[[np.argmin(Y[:, 0]), np.argmax(Y[:, 0])]]
        return _Simplex(vertices[ends], float(Y.max() - Y.min())), []
    x0 = Y.mean(axis=0)
    kept = []
    for j, sel, key in _facets(on, ids, d, maximal):
        if key not in memo:
            sub = _face_subsystem(A, c, j)
            memo[key] = None if sub is None else _face_lattice(
                sub[2], sub[3], (Y[sel] - sub[1]) @ sub[0],
                on[np.ix_(sel, sub[4])], ids[sel], vertices, memo)[0]
        node, height = memo[key], c[j] - A[j] @ x0
        if node is not None and height * node.measure > 0.0:
            kept.append((j, height, node))
    if not kept:
        return None, []
    rows, heights, nodes = zip(*kept)
    cum = np.cumsum(np.array(heights) * [f.measure for f in nodes])
    if len(ids) == d + 1:
        node = _Simplex(vertices[ids], float(cum[-1]) / d)
    else:
        node = _Cone(d, vertices[ids].mean(axis=0), np.array(heights), nodes,
                     float(cum[-1]) / d, cum / cum[-1],
                     2 + max(f.slots for f in nodes),
                     sum(f.simplex_count for f in nodes))
    return node, list(zip(rows, nodes))


@dataclass(frozen=True)
class _Face:
    """A facet of a polytope: its constraint, area and lattice node."""

    index: int
    normal: np.ndarray      # outward
    offset: float
    area: float
    sampler: _Simplex | _Cone


class Polytope(ConvexBody):
    """Bounded intersection of half-spaces {x : a_i . x <= c_i}.

    The bounding box comes from linear programs in all +-coordinate
    directions, solved once at construction (a single half-space takes
    its box in closed form, see _hrep_bbox).  They validate boundedness,
    and one more finds the Chebyshev centre (inradius and interior point),
    unless require_bounded=False: the single half-space that cuts a
    half-ball, whose box may be infinite and which has no Chebyshev
    centre, faces, volume or area.

    The face tables take no linear program.  qhull enumerates the vertices
    once, from the Chebyshev centre; a face's vertices are those within
    the vertex tolerance of its hyperplane (see _VERTEX_TOL), and a
    constraint bounds a face when no other holds a strict superset of its
    vertices.  One _face_lattice call on the body walks the face lattice
    once; each node is a face's exact sampler and carries its measure.
    The faces' nodes give the areas, and the interior node, the cone from
    the vertex centroid over them (a simplex body is one Dirichlet draw),
    the volume.  Cubature weights each node's simplices by their measures.
    """

    def __init__(self, half_spaces, require_bounded: bool = True):
        normals = []
        offsets = []
        for a, ci in half_spaces:
            a = np.asarray(a, dtype=float)
            if not (np.all(np.isfinite(a)) and math.isfinite(ci)):
                raise ValueError("half-space normals and offsets must be finite")
            norm = float(np.linalg.norm(a))
            if norm < _TOL:
                raise ValueError("half-space normal must be nonzero")
            if abs(norm - 1.0) > 1e-6:
                raise ValueError("half-space normals must be unit vectors")
            normals.append(a / norm)
            offsets.append(float(ci) / norm)
        self.A = np.array(normals)
        self.c = np.array(offsets)
        if self.A.ndim != 2 or self.A.shape[1] < 2:
            raise ValueError("polytope dimension must be >= 2")
        self.dimension = self.A.shape[1]
        self.require_bounded = bool(require_bounded)
        self._bbox = _hrep_bbox(self.A, self.c)
        if require_bounded:
            lo, hi = self._bbox
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("polytope is unbounded")
            center, radius = _chebyshev_center(self.A, self.c)
            if center is None or radius <= _TOL * max(1.0, float(np.abs(hi).max())):
                raise ValueError("polytope has empty interior")
            self._center = center
            self._inradius = radius

    def distances_many(self, points):
        if len(points) == 1:
            # numpy multiplies a single row by gemv, which rounds unlike
            # gemm; doubling the row keeps each point's distance
            # independent of how many points share the call
            return _slacks(self.A, self.c, np.vstack((points, points)))[:1]
        return _slacks(self.A, self.c, points)

    def bounding_box(self):
        return self._bbox[0].copy(), self._bbox[1].copy()

    def inradius(self):
        return self._inradius

    def interior_point(self):
        return self._center.copy()

    @cached_property
    def faces(self) -> list[_Face]:
        return self._lattice[0]

    @cached_property
    def _lattice(self):
        """(faces, interior node) from one vertex enumeration and one
        _face_lattice call on the body, whose facets are the faces."""
        if not self.require_bounded:
            raise ValueError("faces of an unbounded half-space collection "
                             "are not available")
        lo, hi = self._bbox
        scale = max(1.0, float(np.linalg.norm(hi - lo)))
        halves = np.hstack([self.A, -self.c[:, None]])
        try:
            vertices = HalfspaceIntersection(halves, self._center).intersections
        except QhullError as exc:
            raise ValueError("qhull could not enumerate the polytope's "
                             "vertices (too thin?)") from exc
        size = float(np.abs(vertices).max())
        tol = _VERTEX_TOL * scale + _VERTEX_ROUNDING * size
        on = np.abs(vertices @ self.A.T - self.c) <= tol
        # a maximal vertex set spans its face, so no size threshold is
        # needed: one drops the side faces of thin bodies the constructor
        # accepts (a slab 2e-12 x scale thick)
        interior, facets = _face_lattice(self.A, self.c, vertices, on,
                                         np.arange(len(vertices)), vertices,
                                         {}, maximal=True)
        if interior is None:
            raise ValueError("polytope has no positive-area faces")
        return [_Face(int(i), self.A[i], self.c[i], node.measure, node)
                for i, node in facets], interior

    def volume_exact(self):
        """The interior node's measure, vol = (1/n) sum_i (c_i - a_i . x0)
        |face_i| about the vertex centroid x0 (see _face_lattice)."""
        return self._lattice[1].measure

    def surface_area_exact(self):
        return float(sum(f.area for f in self.faces))

    @cached_property
    def _face_cum(self):
        areas = np.array([f.area for f in self.faces])
        return np.cumsum(areas), float(areas.sum())

    def _strata(self):
        return 37, np.array([f.area for f in self.faces])

    def _stratum(self, index, key):
        face = self.faces[index]
        sampler = face.sampler

        def draw(ids):
            pos = sampler.draw(rng.uniforms(key, ids, 0, sampler.slots), 0)
            return (pos, np.tile(-face.normal, (len(ids), 1)),
                    np.full(len(ids), face.area), np.ones(len(ids), dtype=bool))
        return draw

    def _interior_batch(self, key, ids):
        sampler = self._lattice[1]
        return (sampler.draw(rng.uniforms(key, ids, 0, sampler.slots), 0),
                np.ones(len(ids), dtype=bool))

    @cached_property
    def _triangulation(self):
        """Simplices and measures of the interior node and the face nodes."""
        faces = zip(*(f.sampler.simplices() for f in self.faces))
        return (self._lattice[1].simplices(),
                tuple(np.concatenate(col) for col in faces))

    def _cubature(self, degree):
        _check_simplices([self._lattice[1]], self.dimension, degree)
        return _simplices_rule(self._triangulation[0], degree)

    def _boundary_cubature(self, degree):
        _check_simplices([f.sampler for f in self.faces], self.dimension - 1,
                         degree)
        return _simplices_rule(self._triangulation[1], degree)

    def shape_json(self):
        return {"type": "polytope",
                "half_spaces": [{"normal": a.tolist(), "offset": float(ci)}
                                 for a, ci in zip(self.A, self.c)]}


class Intersection(ConvexBody):
    """A half-ball: one Ball and one single-constraint half-space
    ``Polytope`` {a . x <= c} (built with require_bounded=False), in
    either order.  Any other members raise ValueError; an intersection of
    half-spaces and boxes is a single polytope.  The plane lies at height
    h = tR from the ball's centre along a, with t = (c - a . centre)/R
    clamped to [-1, 1] (at t = 1 the body is the whole ball).

    Its measures and deepest point are closed forms.  The deepest point,
    centre - R(1 - t)/2 a, lies as far below the plane as inside the
    sphere, so the inradius is R(1 + t)/2.  The boundary strata are the
    kept cap and the flat (n-1)-ball, weighted by their exact areas and
    drawn directly (``_cap_stratum``, ``_flat_stratum``); ``_mixture``
    holds them.  The interior is drawn by rejection from the bounding box,
    the ball's box cut by the half-space's.
    """

    def __init__(self, members):
        members = list(members)
        balls = [m for m in members if isinstance(m, Ball)]
        cuts = [m for m in members
                if isinstance(m, Polytope) and len(m.c) == 1]
        if len(members) != 2 or len(balls) != 1 or len(cuts) != 1:
            raise ValueError("an intersection must be one ball and one "
                             "half-space (a polytope of one constraint); "
                             "write an intersection of half-spaces and boxes "
                             "as a single polytope document")
        (ball,), (cut,) = balls, cuts
        if ball.dimension != cut.dimension:
            raise ValueError("intersection members must share one dimension")
        self.members = members
        self.dimension = ball.dimension
        (lo, hi), (lo2, hi2) = (m.bounding_box() for m in members)
        lo, hi = np.maximum(lo, lo2), np.minimum(hi, hi2)
        self._bbox = (lo, hi)
        a = cut.A[0]
        t = (cut.c[0] - a @ ball.center) / ball.radius
        t = min(max(float(t), -1.0), 1.0)
        self._inradius = 0.5 * ball.radius * (1.0 + t)
        if self._inradius <= _TOL * max(1.0, float(np.abs(hi).max())):
            raise ValueError("intersection has empty interior")
        self._deep_point = ball.center - 0.5 * ball.radius * (1.0 - t) * a
        # (ball, a, t, cap, flat): cap and flat are the boundary areas of
        # the ball cut at height tR, the sphere part kept, by the cap
        # formula of volume_exact with I_(1-t^2)((n-1)/2, 1/2), and the
        # flat (n-1)-ball of radius R sqrt(1 - t^2),
        # omega_(n-1) (R^2 - h^2)^((n-1)/2) with omega_1 = 2 (a chord)
        n, radius = self.dimension, ball.radius
        cap = ball_surface_area(n, radius) * _kept_share(0.5 * (n - 1), t)
        flat = (math.pi * (1.0 - t) * (1.0 + t)) ** (0.5 * (n - 1)) \
            / math.gamma(0.5 * (n + 1))
        self._half_ball = (ball, a, t, cap, flat * radius ** (n - 1))

    def distances_many(self, points):
        d = self.members[0].distances_many(points)
        return np.minimum(d, self.members[1].distances_many(points))

    def bounding_box(self):
        return self._bbox[0].copy(), self._bbox[1].copy()

    def inradius(self):
        return self._inradius

    def interior_point(self):
        return self._deep_point.copy()

    def volume_exact(self):
        """Closed form for a ball of radius R cut at height h = tR from its
        centre (S. Li, "Concise formulas for the area and volume of a
        hyperspherical cap", 2011): the cap beyond the plane has volume
        (1/2) omega_n R^n I_(1-t^2)((n+1)/2, 1/2), and it is the body
        itself when t < 0."""
        ball, _a, t, _cap, _flat = self._half_ball
        return ball_volume(self.dimension, ball.radius) \
            * _kept_share(0.5 * (self.dimension + 1), t)

    def surface_area_exact(self):
        """The kept cap plus the flat face."""
        return float(self._half_ball[3] + self._half_ball[4])

    @cached_property
    def diameter(self):
        lo, hi = self._bbox
        own = float(np.linalg.norm(hi - lo))
        return min([own] + [m.diameter for m in self.members])

    @cached_property
    def _mixture(self):
        """(draws, areas) of the boundary strata: ``draws[k](key)`` is the
        candidate draw of stratum k (see ``_strata``), the kept cap and the
        flat face, weighted by their closed-form areas, without a stratum of
        zero area (the flat face of a plane missing the ball)."""
        areas = self._half_ball[3:]
        strata = (self._cap_stratum, self._flat_stratum)
        return ([draw for area, draw in zip(areas, strata) if area > 0.0],
                np.array([area for area in areas if area > 0.0]))

    def _cap_stratum(self, key):
        """The kept cap {s <= t}, s = a . (x - centre)/R, from one sphere
        point z per id (counter 0).  Where s > max(t, 0), z is reflected
        across the plane through the centre parallel to the cut (s -> -s),
        so a cap point with s < -t is reached from two sphere points and
        weighs half the sphere's area, the band -t <= s <= t from one.
        Every candidate lands on the cap when t >= 0; when t < 0 those
        with s <= t do."""
        ball, a, t, _cap, _flat = self._half_ball
        full = ball.surface_area_exact()

        def draw(ids):
            z = rng.unit_vectors(key, ids, 0, self.dimension)
            # column by column, so every row rounds alike in any batch
            s = z[:, 0] * a[0]
            for k in range(1, self.dimension):
                s += z[:, k] * a[k]
            fold = s > max(t, 0.0)
            # masks, not row indexing, which took twice as long
            z -= np.where(fold, 2.0 * s, 0.0)[:, None] * a
            np.negative(s, out=s, where=fold)
            wgt = np.where(s < -t, 0.5 * full, full)
            return ball.center + ball.radius * z, -z, wgt, s <= t
        return draw

    def _flat_stratum(self, key):
        """The flat face: a uniform (n-1)-ball point (``_unit_ball_points``)
        of radius R sqrt(1 - t^2) in the chart ``_complement(a)`` of the
        plane, centred at centre + tR a; inward normal -a."""
        ball, a, t, _cap, area = self._half_ball
        foot = ball.center + t * ball.radius * a
        chart = ball.radius * math.sqrt((1.0 - t) * (1.0 + t)) \
            * _complement(a).T

        def draw(ids):
            u = _unit_ball_points(key, ids, self.dimension - 1)
            pos = foot + u[:, :1] * chart[0]
            for k in range(1, self.dimension - 1):
                pos += u[:, k:k + 1] * chart[k]
            m = len(ids)
            return (pos, np.tile(-a, (m, 1)), np.full(m, area),
                    np.ones(m, dtype=bool))
        return draw

    def _strata(self):
        return 41, self._mixture[1]

    def _stratum(self, index, key):
        return self._mixture[0][index](key)

    def shape_json(self):
        return {"type": "intersection",
                "members": [m.shape_json() for m in self.members]}


class _ClippedPolytope(Polytope):
    """Not built by the package.  The benchmark's tracer
    (perfbench/bench_trace.py) patches its ``faces`` by name, so the class
    stays until the benchmark drops that hook."""

    @cached_property
    def faces(self):
        return super().faces


def _kept_share(a: float, t: float) -> float:
    """Share of a ball (a = (n+1)/2) or of its sphere (a = (n-1)/2) on the
    side s <= tR of a plane, |t| <= 1: 1 - (1/2) I_(1-t^2)(a, 1/2), or
    (1/2) I_(1-t^2)(a, 1/2) when t < 0.  It is evaluated through
    I_(1-t^2)(a, 1/2) = 1 - I_(t^2)(1/2, a): 1 - t^2 rounds near t = 0,
    where I_x(a, 1/2) has an infinite slope in x, and t^2 does not."""
    x = t * t
    if t >= 0.0:
        return 0.5 * (1.0 + float(betainc(0.5, a, x)))
    return 0.5 * float(betaincc(0.5, a, x))


# ---------------------------------------------------------------------------
# Module-level operations


def contains(body: ConvexBody, x) -> bool:
    """True iff x lies in the closed body; exact per representation."""
    v = _as_vector(x, body.dimension)
    return bool(body.contains_many(v[None, :])[0])


def distance_to_boundary(body: ConvexBody, x) -> float:
    """Distance from an interior point to the boundary (certified lower
    bound for ellipsoids, exact otherwise)."""
    d = float(body.distances_many(_as_vector(x, body.dimension)[None, :])[0])
    if not d >= 0.0:
        raise ValueError("point lies outside the body")
    return d


def volume(body: ConvexBody, cfg: WosConfig) -> Estimate:
    """The body's volume as an exact Estimate (stderr 0): every body has a
    closed form.  ``cfg`` is not read."""
    return Estimate.exact(body.volume_exact())


def surface_area(body: ConvexBody, cfg: WosConfig) -> Estimate:
    """The body's surface area as an exact Estimate (stderr 0): closed
    forms, the ellipsoid's by a 1-D quadrature to rounding (see
    Ellipsoid._area).  ``cfg`` is not read."""
    return Estimate.exact(body.surface_area_exact())


def _rule(rule, degree: int):
    if not 0 <= degree <= CUBATURE_MAX_DEGREE:
        return None
    try:
        out = rule(degree)
    except _RuleTooLarge:
        return None
    if out is not None:
        for a in out:
            a.flags.writeable = False
    return out


def cubature(body: ConvexBody, degree: int):
    """(nodes, weights), read-only, with sum_i w_i f(x_i) the integral of
    f over the body for every polynomial f of total degree <= degree, or
    None.  Balls and ellipsoids take a radial Gauss-Jacobi rule times a
    spherical product rule, boxes tensor Gauss-Legendre, polytopes a
    Grundmann-Moeller rule on each simplex of their face lattice.
    Half-balls, degrees outside 0..CUBATURE_MAX_DEGREE and rules of more
    than CUBATURE_MAX_NODES nodes get None."""
    return _rule(body._cubature, degree)


def boundary_cubature(body: ConvexBody, degree: int):
    """The same for the integral over the boundary: the spherical rule on
    balls, tensor Gauss-Legendre on each box face, Grundmann-Moeller on
    the simplices of each polytope face.  Ellipsoids and half-balls get
    None."""
    return _rule(body._boundary_cubature, degree)


def boundary_quadrature(body: ConvexBody, degree: int):
    """(nodes, weights), read-only, for the integral of a smooth f over
    the boundary, or None: boundary_cubature's rule where the body has
    one.  An ellipsoid's is the sphere rule of ``degree`` mapped by
    x = c + b theta and weighted by that map's surface Jacobian
    prod(b) |theta / b|.  It is exact only where f times that Jacobian
    is a polynomial of degree <= ``degree`` on the sphere, and converges
    fast for f analytic near the boundary; its weights sum to the area
    only to its accuracy, so a caller divides by their sum and multiplies
    by ``surface_area_exact``.  Half-balls get None."""
    return _rule(body._boundary_quadrature, degree)


def interior_points(body: ConvexBody, count: int, key: int) -> np.ndarray:
    """Exactly ``count`` uniform interior samples.  Balls, ellipsoids,
    boxes and polytopes draw them exactly, one candidate per sample;
    half-balls by bounding-box rejection."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return _keyed_rejection(lambda ids: body._interior_batch(key, ids),
                            count, _BATCH, 100_000_000,
                            "interior sampling starved (volume ~ 0?)")[0]


# ---------------------------------------------------------------------------
# JSON


def body_to_json(body: ConvexBody) -> dict:
    return {"dimension": body.dimension, "shape": body.shape_json()}


def _finite_number(v) -> bool:
    # compares exactly: an int too large for a float is not finite
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON field kinds: (what the message says is expected, the check)
_JSON_KINDS = {
    "number": ("a finite number", _finite_number),
    "integer": ("an integer", _integer),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_finite_number, v))),
    "integers": ("a list of integers",
                 lambda v: isinstance(v, list) and all(map(_integer, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
}


def json_object(doc, what: str) -> dict:
    """``doc`` when it is a JSON object; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


def json_field(doc: dict, name: str, what: str, kind: str):
    """Field ``name`` of the object ``doc``, checked to be of one of the
    ``_JSON_KINDS``; ValueError when it is missing or of another type."""
    if name not in doc:
        raise ValueError(f"{what} has no field {name!r}")
    expected, ok = _JSON_KINDS[kind]
    if not ok(doc[name]):
        raise ValueError(f"{what} field {name!r} must be {expected}")
    return doc[name]


def _shape_from_json(doc: dict, n: int, member: bool = False) -> ConvexBody:
    kind = doc.get("type")
    what = f"{kind} shape"
    if kind == "ball":
        return Ball(center=json_field(doc, "center", what, "numbers"),
                    radius=json_field(doc, "radius", what, "number"))
    if kind == "ellipsoid":
        return Ellipsoid(center=json_field(doc, "center", what, "numbers"),
                         semi_axes=json_field(doc, "semi_axes", what, "numbers"))
    if kind == "box":
        return Box(lower=json_field(doc, "lower", what, "numbers"),
                   upper=json_field(doc, "upper", what, "numbers"))
    if kind == "polytope":
        halves = []
        for h in json_field(doc, "half_spaces", what, "list"):
            h = json_object(h, "half-space")
            halves.append((json_field(h, "normal", "half-space", "numbers"),
                           json_field(h, "offset", "half-space", "number")))
        return Polytope(halves, require_bounded=not member)
    if kind == "intersection":
        members = [_shape_from_json(json_object(m, "intersection member"), n,
                                    member=True)
                   for m in json_field(doc, "members", what, "list")]
        return Intersection(members)
    raise ValueError(f"unknown shape type {kind!r}")


def body_from_json(doc) -> ConvexBody:
    """The body a JSON document describes; ValueError on a document that
    is not an object, a missing field, a field of the wrong type, a
    non-finite number or an invalid shape."""
    doc = json_object(doc, "body document")
    n = json_field(doc, "dimension", "body document", "integer")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    body = _shape_from_json(json_field(doc, "shape", "body document", "object"),
                            n)
    if body.dimension != n:
        raise ValueError("shape dimension does not match the declared dimension")
    return body
