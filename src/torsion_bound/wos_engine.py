"""Walk-on-spheres Monte Carlo for the torsion problem -lap u = 1, u = 0
on the boundary of a convex body.

Each walk repeatedly jumps to a uniform point on the largest certified
inscribed sphere and accumulates r^2 / (2n) per jump: u(x) + |y - x|^2/(2n)
is harmonic in y, so sphere-mean recursion with that per-step source term
is exact, and the only bias is the absorbing shell near the boundary,
O(shell_width * diameter).  Walks hitting the step cap add a uniform
remainder bound (half the exit-time bound (1/n)(vol/omega_n)^{2/n}) so the
estimate stays conservative, and are counted in truncated_fraction.

All walks from one start advance together in one loop that drops walks
from its arrays as they absorb; very large sample counts run in blocks of
walk indices to bound memory.  Randomness is keyed by (seed, start point,
walk index, step), so every block size reproduces the same per-walk values
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convex_geometry as cg
from . import rng
from .analytic_library import (BoundReport, lifetime_bound, make_report,
                               minimized_bound)
from .convex_geometry import BoundaryPoint, ConvexBody
from .estimates import Estimate, WosConfig

__all__ = ["WosConfig", "Estimate", "torsion_value", "exit_time_mean",
           "normal_derivative", "max_normal_derivative", "MaxNormalDerivative",
           "lifetime_bound_check", "exit_time_domination"]

_TAG_TORSION = 201
_TAG_MAXGRAD = 202
_TAG_LIFETIME = 203
# Walks per block: bounds memory for very large sample counts; every
# default sample count runs as one block.
_BLOCK = 65_536


def _volume_upper_bound(body: ConvexBody) -> float:
    v = body.volume_exact()
    if v is not None:
        return v
    lo, hi = body.bounding_box()
    return float(np.prod(hi - lo))


def _tail_bound(body: ConvexBody) -> float:
    """Upper bound on the torsion value anywhere in the body (conservative
    remainder for capped walks)."""
    return 0.5 * lifetime_bound(body.dimension, _volume_upper_bound(body))


def _torsion_block(body: ConvexBody, x: np.ndarray, cfg: WosConfig, key: int,
                   lo: int, hi: int, values: np.ndarray) -> int:
    """Run walks lo..hi-1 from x, writing each walk's value into values at
    its walk index; returns the number of walks that hit the step cap."""
    n = body.dimension
    ids = np.arange(lo, hi, dtype=np.uint64)
    pos = np.tile(x, (hi - lo, 1))
    acc = np.zeros(hi - lo)
    shell = cfg.shell_width * body.diameter
    inv2n = 1.0 / (2.0 * n)
    for step in range(cfg.max_steps):
        d = body.distances_many(pos)
        alive = d > shell
        if not alive.all():
            dead = ~alive
            values[ids[dead]] = acc[dead]
            ids, pos, acc, d = ids[alive], pos[alive], acc[alive], d[alive]
            if ids.size == 0:
                return 0
        acc += d * d * inv2n
        pos += d[:, None] * rng.unit_vectors(key, ids, step, n)
    values[ids] = acc + _tail_bound(body)
    return ids.size


def torsion_value(body: ConvexBody, x, cfg: WosConfig) -> Estimate:
    """Estimate the torsion function at the interior point x.

    Requires x deeper than the absorbing shell.  The per-walk results do
    not depend on the block size, so neither does the returned Estimate.
    """
    x = np.asarray(x, dtype=float)
    if not cg.contains(body, x):
        raise ValueError("start point lies outside the body")
    shell = cfg.shell_width * body.diameter
    if cg.distance_to_boundary(body, x) <= shell:
        raise ValueError("start point lies inside the absorbing shell")
    key = rng.derive_from_floats(rng.derive(cfg.seed, _TAG_TORSION), x)
    values = np.empty(cfg.samples)
    truncated = sum(
        _torsion_block(body, x, cfg, key, lo, min(lo + _BLOCK, cfg.samples),
                       values)
        for lo in range(0, cfg.samples, _BLOCK))
    return Estimate.from_values(values, truncated=truncated)


def exit_time_mean(body: ConvexBody, x, cfg: WosConfig) -> Estimate:
    """Expected exit time of standard Brownian motion started at x:
    twice the torsion value (same walks, scaled)."""
    return torsion_value(body, x, cfg).scaled(2.0)


def _usable_probe(body: ConvexBody, position, normal, delta, shell):
    probe = position + delta * normal
    if not body.contains_many(probe[None, :])[0]:
        return None
    if float(body.distances_many(probe[None, :])[0]) <= shell:
        return None
    return probe


def normal_derivative(body: ConvexBody, bp: BoundaryPoint, cfg: WosConfig,
                      richardson: bool = False) -> Estimate:
    """One-sided divided difference u(x + delta nu) / delta (u vanishes on
    the boundary), with delta = fd_delta * diameter.

    The O(delta) bias is downward near smooth maxima, the lenient
    direction for checking upper gradient bounds: it can hide a small
    excess over the bound.  richardson=True combines
    probes at delta and delta/2 to cancel the first-order bias.  If the
    probe exits the body (corners), delta shrinks geometrically up to 8
    times before the point is rejected.
    """
    shell = cfg.shell_width * body.diameter
    delta = cfg.fd_delta * body.diameter
    probe = None
    for _ in range(9):
        probe = _usable_probe(body, bp.position, bp.inward_normal, delta, shell)
        if probe is not None and (not richardson or _usable_probe(
                body, bp.position, bp.inward_normal, 0.5 * delta, shell) is not None):
            break
        probe = None
        delta *= 0.5
    if probe is None:
        raise ValueError("no usable probe along the inward normal "
                         "(boundary point too close to a corner)")
    full = torsion_value(body, probe, cfg)
    if not richardson:
        return full.scaled(1.0 / delta)
    half_probe = bp.position + 0.5 * delta * bp.inward_normal
    half = torsion_value(body, half_probe, cfg)
    # f(d) = u(x + d nu)/d = u'(x) + c d + O(d^2): 2 f(d/2) - f(d) kills c
    mean = 2.0 * half.mean / (0.5 * delta) - full.mean / delta
    stderr = math.hypot(2.0 * half.stderr / (0.5 * delta), full.stderr / delta)
    return Estimate(mean=mean, stderr=stderr,
                    samples=full.samples + half.samples,
                    truncated_fraction=max(full.truncated_fraction,
                                           half.truncated_fraction))


@dataclass(frozen=True)
class MaxNormalDerivative:
    """Sampled maximum of the inward normal derivative: the largest of
    many noisy probe estimates, so it is biased upward as an estimate of
    the true boundary maximum, and ``estimate.stderr`` is that one probe's
    stderr, which understates the spread of the maximum."""

    estimate: Estimate
    location: np.ndarray
    normal: np.ndarray
    evaluations: int


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


def _stratified_boundary(body: ConvexBody, count: int, key: int):
    """Boundary points with per-face / per-member coverage guarantees
    where the body has natural strata; falls back to plain sampling."""
    if isinstance(body, cg.Box):
        faces, _cum, _total = body._face_table
        counts = _largest_remainder(np.array([f[2] for f in faces]), count)
        pos_parts, nrm_parts = [], []
        for fi, ((k, side, _area, normal), cnt) in enumerate(zip(faces, counts)):
            if cnt == 0:
                continue
            ids = np.arange(cnt, dtype=np.uint64)
            u = rng.uniforms(rng.derive(key, 31, fi), ids, 0, body.dimension)
            other = [j for j in range(body.dimension) if j != k]
            block = np.empty((cnt, body.dimension))
            block[:, other] = body.lower[other] + u[:, 1:] * (
                body.upper[other] - body.lower[other])
            block[:, k] = body.lower[k] if side == 0 else body.upper[k]
            pos_parts.append(block)
            nrm_parts.append(np.tile(normal, (cnt, 1)))
        return np.concatenate(pos_parts), np.concatenate(nrm_parts)
    if isinstance(body, cg.Polytope):
        faces = body.faces
        counts = _largest_remainder(np.array([f.area for f in faces]), count)
        pos_parts, nrm_parts = [], []
        for fi, (face, cnt) in enumerate(zip(faces, counts)):
            if cnt == 0:
                continue
            pts = _polytope_face_points(body, face, cnt, rng.derive(key, 37, fi))
            pos_parts.append(pts)
            nrm_parts.append(np.tile(-face.normal, (cnt, 1)))
        return np.concatenate(pos_parts), np.concatenate(nrm_parts)
    if isinstance(body, cg.Intersection):
        samplers, fracs, _total = body._mixture
        counts = _largest_remainder(np.asarray(fracs), count)
        pos_parts, nrm_parts = [], []
        for k, (sampler, cnt) in enumerate(zip(samplers, counts)):
            if cnt == 0:
                continue
            collected = 0
            next_id = 0
            member_key = rng.derive(key, 41, k)
            while collected < cnt:
                ids = np.arange(next_id, next_id + 4 * cnt + 64, dtype=np.uint64)
                next_id += len(ids)
                p, v, _w, ok = sampler._boundary_batch(member_key, ids)
                for j, m in enumerate(body.members):
                    if j != k:
                        ok &= m.contains_many(p)
                pos_parts.append(p[ok])
                nrm_parts.append(v[ok])
                collected += int(ok.sum())
                if next_id > 1_000_000:
                    raise cg.SamplingStarved("stratified member sampling starved")
        pos = np.concatenate(pos_parts)[:count]
        nrm = np.concatenate(nrm_parts)[:count]
        return pos, nrm
    pos, nrm, _w = body.boundary_arrays(count, key)
    return pos, nrm


def _polytope_face_points(body: "cg.Polytope", face, count: int,
                          key: int) -> np.ndarray:
    span = face.chart_hi - face.chart_lo
    out = np.empty((count, body.dimension))
    filled = 0
    next_id = 0
    while filled < count:
        ids = np.arange(next_id, next_id + 4 * count + 64, dtype=np.uint64)
        next_id += len(ids)
        y = face.chart_lo + rng.uniforms(key, ids, 0, body.dimension - 1) * span
        good = y[np.all(y @ face.sub_A.T <= face.sub_c, axis=1)]
        take = min(count - filled, len(good))
        out[filled:filled + take] = (face.plane_point
                                     + good[:take] @ face.basis.T)
        filled += take
        if next_id > 1_000_000:
            raise cg.SamplingStarved("face sampling starved")
    return out


def _cap_points(body: ConvexBody, center: np.ndarray, radius: float,
                count: int, key: int):
    """Boundary points within Euclidean ``radius`` of ``center``; returns
    whatever it finds if the cap proves too small to fill."""
    batch = 4096
    pos_parts, nrm_parts = [], []
    collected = 0
    next_id = 0
    while collected < count and next_id < 512 * batch:
        ids = np.arange(next_id, next_id + batch, dtype=np.uint64)
        next_id += batch
        pos, nrm, _w, ok = body._boundary_batch(key, ids)
        near = ok & (np.linalg.norm(pos - center, axis=1) <= radius)
        pos_parts.append(pos[near])
        nrm_parts.append(nrm[near])
        collected += int(near.sum())
    if collected == 0:
        return np.empty((0, body.dimension)), np.empty((0, body.dimension))
    return (np.concatenate(pos_parts)[:count],
            np.concatenate(nrm_parts)[:count])


def max_normal_derivative(body: ConvexBody, cfg: WosConfig,
                          boundary_samples: int,
                          refine_rounds: int = 2) -> MaxNormalDerivative:
    """Maximize the inward normal derivative over sampled boundary points.

    Spends ~60% of the evaluation budget on a stratified global pass and
    the rest on re-sampling inside a shrinking cap around the running
    argmax (uniform sampling alone localizes sharp maxima slowly).
    """
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be >= 1")
    key = rng.derive(cfg.seed, _TAG_MAXGRAD)
    if refine_rounds > 0 and boundary_samples >= 8:
        global_count = max(1, math.ceil(0.6 * boundary_samples))
    else:
        global_count = boundary_samples
        refine_rounds = 0
    refine_budget = boundary_samples - global_count

    best = None  # (mean, Estimate, position, normal)
    evaluations = 0

    def consider(pos, nrm):
        nonlocal best, evaluations
        for p, v in zip(pos, nrm):
            bp = BoundaryPoint(position=p, inward_normal=v)
            try:
                est = normal_derivative(body, bp, cfg)
            except ValueError:
                continue  # corner-pinched probe; excluded by contract
            evaluations += 1
            if best is None or est.mean > best[0]:
                best = (est.mean, est, p, v)

    pos, nrm = _stratified_boundary(body, global_count, key)
    consider(pos, nrm)
    if best is None:
        raise ValueError("no usable boundary points (all probes rejected)")

    radius = body.diameter / 8.0
    for round_ in range(refine_rounds):
        quota = refine_budget // refine_rounds
        if round_ < refine_budget % refine_rounds:
            quota += 1
        if quota == 0:
            continue
        pos, nrm = _cap_points(body, best[2], radius, quota,
                               rng.derive(key, 53, round_))
        consider(pos, nrm)
        radius *= 0.5

    return MaxNormalDerivative(estimate=best[1], location=best[2],
                               normal=best[3], evaluations=evaluations)


def exit_time_domination(body: ConvexBody, x,
                         cfg: WosConfig) -> BoundReport:
    """Check the uniform exit-time bound (1/n)(vol/omega_n)^{2/n} at x."""
    measured = exit_time_mean(body, x, cfg)
    vol = cg.volume(body, cfg)
    bound = lifetime_bound(body.dimension, vol.mean)
    bound_se = (bound * (2.0 / body.dimension) * vol.stderr / vol.mean
                if vol.stderr else 0.0)
    return make_report(
        "exit_time_vs_ball_bound", measured, bound,
        provenance="expected exit time <= (1/n)(vol/omega_n)^(2/n), "
                   "sharp for the centered ball",
        bound_stderr=bound_se,
        details={"point": np.asarray(x, dtype=float).tolist(),
                 "volume": vol.mean})


def lifetime_bound_check(body: ConvexBody, epsilon: float, cfg: WosConfig,
                         boundary_samples: int = 8) -> BoundReport:
    """Start walks a distance epsilon inside sampled boundary points and
    compare their exit times against the assembled bound at its optimal
    horizon: eps (4/sqrt(pi)) (1/sqrt(n)) (vol/omega_n)^{1/n}."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= body.inradius():
        raise ValueError("epsilon must be smaller than the inradius")
    key = rng.derive(cfg.seed, _TAG_LIFETIME)
    pos, nrm, _w = body.boundary_arrays(boundary_samples, key)
    shell = cfg.shell_width * body.diameter
    starts = []
    for p, v in zip(pos, nrm):
        probe = _usable_probe(body, p, v, epsilon, shell)
        if probe is not None:
            starts.append(probe)
    if not starts:
        raise ValueError("no epsilon-deep start points (epsilon too large "
                         "for the sampled boundary region)")
    vol = cg.volume(body, cfg)
    bound = minimized_bound(epsilon, body.dimension, vol.mean)
    bound_se = (bound * vol.stderr / (body.dimension * vol.mean)
                if vol.stderr else 0.0)
    worst = None
    per_point = []
    for start in starts:
        est = exit_time_mean(body, start, cfg)
        per_point.append(est.mean)
        if worst is None or est.mean > worst.mean:
            worst = est
    report = make_report(
        "exit_time_near_boundary", worst, bound,
        provenance="exit time from an eps-deep start <= "
                   "eps (4/sqrt(pi)) n^(-1/2) (vol/omega_n)^(1/n)",
        bound_stderr=bound_se,
        details={"epsilon": epsilon, "points_used": len(starts),
                 "per_point_means": per_point})
    return report
