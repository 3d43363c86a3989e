"""Named bodies and test functions covering every worked example, so the
verification drivers run without hand-written JSON.

Body presets: unit-ball-n{2..6}, unit-box-n{2..4}, beck-ellipsoid-n{2..6}
(the sharpness ellipsoid with semi-axes (2, sqrt(2n-2), ...)), simplex-n{2..4},
half-disk (and its half-ball analogues), and random-polytope-n3 (eight
planes tangent to a sphere, fixed seed).  Function presets are adapted to
the body so the boundary-nonnegativity certificate holds by construction.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import convex_geometry as cg
from . import rng
from .analytic_library import ellipsoid_semi_axes
from .hh_verifier import (Affine, HarmonicPolynomial, Quadratic, ShiftedNorm,
                          SubharmonicFn)

_RANDOM_POLYTOPE_KEY = 0xFACE5


def unit_ball(n: int) -> cg.Ball:
    return cg.Ball([0.0] * n, 1.0)


def unit_box(n: int) -> cg.Box:
    return cg.Box([0.0] * n, [1.0] * n)


def beck_ellipsoid(n: int) -> cg.Ellipsoid:
    return cg.Ellipsoid([0.0] * n, ellipsoid_semi_axes(n))


def simplex(n: int, scale: float = 1.0) -> cg.Polytope:
    """{x : x_i >= 0, sum x_i <= scale} as an H-polytope."""
    halves = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        halves.append((e, 0.0))
    diag = np.full(n, 1.0 / math.sqrt(n))
    halves.append((diag, scale / math.sqrt(n)))
    return cg.Polytope(halves)


def half_ball(n: int) -> cg.Intersection:
    """Unit ball cut by {x_n >= 0}; the half-disk at n = 2."""
    e = np.zeros(n)
    e[-1] = -1.0
    return cg.Intersection([
        unit_ball(n),
        cg.Polytope([(e, 0.0)], require_bounded=False),
    ])


def random_polytope(n: int, faces: int, seed: int) -> cg.Polytope:
    """Bounded polytope from ``faces`` random tangent planes; retries the
    direction set (deterministically) until it is bounded."""
    for attempt in range(64):
        key = rng.derive(seed, 0x9E, attempt)
        ids = np.arange(faces, dtype=np.uint64)
        normals = rng.unit_vectors(key, ids, 0, n)
        offsets = 0.8 + 0.4 * rng.uniforms(key, ids, 1, 1)[:, 0]
        try:
            return cg.Polytope(list(zip(normals, offsets)))
        except ValueError:
            continue
    raise RuntimeError("could not draw a bounded random polytope")


_BODY_BUILDERS = {
    "unit-ball": (unit_ball, range(2, 7)),
    "unit-box": (unit_box, range(2, 5)),
    "beck-ellipsoid": (beck_ellipsoid, range(2, 7)),
    "simplex": (simplex, range(2, 5)),
    "half-ball": (half_ball, range(2, 5)),
    "random-polytope": (lambda n: random_polytope(
        n, faces=8, seed=_RANDOM_POLYTOPE_KEY), range(3, 4)),
}


def body_preset(name: str, n: int | None = None) -> cg.ConvexBody:
    """Resolve 'unit-ball-n3' (a given n must be 3) or 'unit-ball' with n."""
    alias = {"half-disk": "half-ball-n2"}.get(name, name)
    match = re.fullmatch(r"(.+)-n(\d+)", alias)
    if match and match.group(1) in _BODY_BUILDERS:
        if n not in (None, int(match.group(2))):
            raise ValueError(f"preset {name!r} has n = {match.group(2)}, not {n}")
        name, n = match.group(1), int(match.group(2))
    if name in _BODY_BUILDERS:
        builder, valid = _BODY_BUILDERS[name]
        if n is None:
            raise ValueError(f"preset {name!r} needs a dimension")
        if n not in valid:
            raise ValueError(f"preset {name!r} supports n in {list(valid)}")
        return builder(n)
    raise ValueError(f"unknown body preset {name!r}")


# ---------------------------------------------------------------------------
# test functions adapted to a body


def constant_fn(body: cg.ConvexBody) -> SubharmonicFn:
    return Affine(1.0, [0.0] * body.dimension)


def height_affine(body: cg.ConvexBody) -> SubharmonicFn:
    """1 - x_last / M with M = sup of the last coordinate over the body;
    reduces to the half-disk example f = 1 - y, which shows c_2 >= 0.2296
    (weaker than the disk's 1/(2 sqrt(pi)) from cn_lower_bound(2)).
    Requires M > 0."""
    top = float(body.bounding_box()[1][-1])
    if not top > 0.0:
        raise ValueError("height-affine needs the sup of the last coordinate "
                         f"over the body to be > 0, got {top}")
    linear = np.zeros(body.dimension)
    linear[-1] = -1.0 / top
    return Affine(1.0, linear)


def shifted_norm_fn(body: cg.ConvexBody) -> SubharmonicFn:
    lo, hi = body.bounding_box()
    anchor = 0.5 * (lo + hi)
    anchor = anchor.copy()
    anchor[0] += 2.0 * body.diameter
    return ShiftedNorm(anchor)


def harmonic_cubic(body: cg.ConvexBody) -> SubharmonicFn:
    """x1^3 - 3 x1 x2^2 shifted by a constant that dominates its sup-norm
    over the bounding box, so it is nonnegative on the boundary."""
    n = body.dimension
    lo, hi = body.bounding_box()
    big = np.maximum(np.abs(lo), np.abs(hi))
    shift = 1.0 + big[0] ** 3 + 3.0 * big[0] * big[1] ** 2
    cubic = {}
    p = [0] * n
    p[0] = 3
    cubic[tuple(p)] = 1.0
    p = [0] * n
    p[0] = 1
    p[1] = 2
    cubic[tuple(p)] = -3.0
    cubic[tuple([0] * n)] = float(shift)
    return HarmonicPolynomial(cubic, n)


def boundary_touching_quadratic(body: cg.ConvexBody) -> SubharmonicFn:
    """|x - p|^2 anchored at an interior point: strictly subharmonic,
    positive on the boundary, vanishing inside."""
    return Quadratic(body.interior_point())


_FN_BUILDERS = {
    "constant": constant_fn,
    "height-affine": height_affine,
    "shifted-norm": shifted_norm_fn,
    "harmonic-cubic": harmonic_cubic,
    "quadratic": boundary_touching_quadratic,
}


def fn_preset(name: str, body: cg.ConvexBody) -> SubharmonicFn:
    if name not in _FN_BUILDERS:
        raise ValueError(f"unknown function preset {name!r}")
    return _FN_BUILDERS[name](body)


PAIR_PRESETS = {
    # half-disk with f = 1 - y: shows c_2 >= 0.2296, weaker than the
    # disk's 1/(2 sqrt(pi)) from cn_lower_bound(2)
    "half-disk-affine": ("half-disk", "height-affine"),
}


def theorem1_suite(n: int) -> list[tuple[str, cg.ConvexBody]]:
    """The body suite used by the end-to-end inequality check."""
    return [
        (f"unit-ball-n{n}", unit_ball(n)),
        (f"unit-box-n{n}", unit_box(n)),
        (f"simplex-n{n}", simplex(n)),
        (f"beck-ellipsoid-n{n}", beck_ellipsoid(n)),
        ("half-disk" if n == 2 else f"half-ball-n{n}", half_ball(n)),
    ]


def suite_functions(body: cg.ConvexBody) -> list[tuple[str, SubharmonicFn]]:
    return [(name, fn_preset(name, body))
            for name in ("constant", "height-affine", "shifted-norm",
                         "harmonic-cubic")]


# ---------------------------------------------------------------------------
# random bodies for the domination sweeps


def random_body(n: int, seed: int, index: int) -> tuple[cg.ConvexBody, float]:
    """A random ball/box/ellipsoid/simplex with its exact volume."""
    key = rng.derive(seed, 0xB0D1, index)
    u = rng.uniforms(key, np.arange(2 * n + 2, dtype=np.uint64), 0, 1)[:, 0]
    kind = index % 4
    if kind == 0:
        center = 2.0 * u[:n] - 1.0
        radius = 0.5 + 1.5 * u[n]
        body = cg.Ball(center, radius)
    elif kind == 1:
        lower = 2.0 * u[:n] - 1.0
        ext = 0.5 + 1.5 * u[n:2 * n]
        body = cg.Box(lower, lower + ext)
    elif kind == 2:
        center = 2.0 * u[:n] - 1.0
        axes = 0.5 + 1.5 * u[n:2 * n]
        body = cg.Ellipsoid(center, axes)
    else:
        body = simplex(n, scale=1.0 + 2.0 * u[0])
    return body, body.volume_exact()


def random_interior_point(body: cg.ConvexBody, seed: int,
                          min_depth: float) -> np.ndarray:
    """A uniform interior point at least ``min_depth`` from the boundary."""
    key = rng.derive(seed, 0x9017)
    for attempt in range(10_000):
        pt = cg.interior_points(body, 1, rng.derive(key, attempt))[0]
        if body.distances_many(pt[None, :])[0] > min_depth:
            return pt
    raise RuntimeError("could not find a deep interior point")
