"""Walk-on-spheres Monte Carlo for the torsion problem -lap u = 1, u = 0
on the boundary of a convex body.

Each walk repeatedly jumps to a uniform point on the largest certified
inscribed sphere and accumulates r^2 / (2n) per jump: u(x) + |y - x|^2/(2n)
is harmonic in y, so sphere-mean recursion with that per-step source term
is exact, and the only bias is the absorbing shell near the boundary,
O(shell_width * diameter).  Walks hitting the step cap add a uniform
remainder bound (half the exit-time bound (1/n)(vol/omega_n)^{2/n}) so the
estimate stays conservative, and are counted in truncated_fraction.

All walks from a set of starts advance together in one loop, one column
of the coordinate-major (n, m) positions per (walk, start) pair, so a
step runs along rows of m; it drops columns as they absorb, and the
distance oracles take the (m, n) transpose.  Very large sample counts
run in blocks of walk indices to bound memory.
Randomness is keyed by (seed, walk index, step), never by the start
point, each walk's key derived once (``rng.unit_keys``): a step draws one
direction per walk and gives it to all of that walk's columns, so every
block size and every set of starts gives the same per-walk values.

The gradient maximum probes each point of the body's stratified boundary
sample (``ConvexBody.stratified_boundary``) once and keeps the largest
estimate; how a body is stratified is known only to convex_geometry.
"""

from __future__ import annotations

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
           "lifetime_bound_check"]

_TAG_TORSION = 201
_TAG_MAXGRAD = 202
_TAG_LIFETIME = 203
# Walks per block: bounds memory for very large sample counts; every
# default sample count runs as one block.
_BLOCK = 65_536
# Steps per walk; walks still alive after it are capped (truncated).
_MAX_STEPS = 100_000


def _tail_bound(body: ConvexBody) -> float:
    """Upper bound on the torsion value anywhere in the body (conservative
    remainder for capped walks)."""
    return 0.5 * lifetime_bound(body.dimension, body.volume_exact())


def _torsion_block(body: ConvexBody, starts: np.ndarray, cfg: WosConfig,
                   key: int, lo: int, hi: int, values: np.ndarray) -> np.ndarray:
    """Run walks lo..hi-1 from each row of starts, writing walk i's value
    from start s into values[s, i]; returns, per start, the number of
    walks that hit the step cap.

    One column of the (n, m) positions per (walk, start) pair.  Each step
    draws one direction per walk with a live column and gives it to all
    of that walk's columns: the draw each start's own walk takes, so
    every column follows its one-start path bit for bit."""
    k, n = starts.shape
    keys = rng.unit_keys(key, np.arange(lo, hi, dtype=np.uint64))
    # flat index of each column's (start, walk) entry in values
    slot = (np.arange(lo, hi)[:, None]
            + np.arange(k)[None, :] * values.shape[1]).ravel()
    flat = values.reshape(-1)
    pos = np.tile(starts.T, hi - lo)
    acc = np.zeros(len(slot))
    # column -> its walk's entry in keys; none with one start, where each
    # column is its own walk and keys shrink with the columns
    walk = np.repeat(np.arange(hi - lo), k) if k > 1 else None
    shell = cfg.shell_width * body.diameter
    inv2n = 1.0 / (2.0 * n)
    for step in range(_MAX_STEPS):
        d = body.distances_many(pos.T)
        alive = d > shell
        if not alive.all():
            dead = ~alive
            flat[slot[dead]] = acc[dead]
            # takes by index: boolean selection of the positions costs over
            # ten times as much
            keep = np.flatnonzero(alive)
            if keep.size == 0:
                return np.zeros(k, dtype=int)
            slot, acc, d = slot.take(keep), acc.take(keep), d.take(keep)
            pos = pos.take(keep, axis=1)
            if walk is None:
                keys = keys.take(keep)
            else:
                walk = walk.take(keep)
                live = np.zeros(keys.size, dtype=bool)
                live[walk] = True
                if not live.all():  # a walk lost its last column
                    keys, walk = keys[live], (np.cumsum(live) - 1).take(walk)
        acc += d * d * inv2n
        dirs = rng.draw_unit_vectors(keys, step, n).T
        if walk is not None:
            dirs = dirs.take(walk, axis=1)
        dirs *= d
        pos += dirs
    flat[slot] = acc + _tail_bound(body)
    return np.bincount(slot // values.shape[1], minlength=k)


def _torsion_values(body: ConvexBody, starts: np.ndarray,
                    cfg: WosConfig) -> list[Estimate]:
    """One torsion Estimate per row of starts, all deeper than the shell,
    from one walk loop: at most _BLOCK columns, so _BLOCK // k walks, per
    block."""
    k = len(starts)
    key = rng.derive(cfg.seed, _TAG_TORSION)
    values = np.empty((k, cfg.samples))
    per = max(1, _BLOCK // k)
    truncated = sum(
        _torsion_block(body, starts, cfg, key, lo,
                       min(lo + per, cfg.samples), values)
        for lo in range(0, cfg.samples, per))
    return [Estimate.from_values(v, truncated=int(t))
            for v, t in zip(values, truncated)]


def torsion_value(body: ConvexBody, x, cfg: WosConfig) -> Estimate:
    """Estimate the torsion function at the interior point x.

    Requires x deeper than the absorbing shell.  The per-walk results do
    not depend on the block size, so neither does the returned Estimate.
    Walk i draws from (cfg.seed, i) alone, whatever x is: calls that share
    a cfg share walks (common random numbers), and a caller that needs
    independent estimates passes ``cfg.replace(seed=...)`` per call.
    Several starts sharing a cfg run in one loop (``lifetime_bound_check``)
    and give each start this call's Estimate bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if cg.distance_to_boundary(body, x) <= cfg.shell_width * body.diameter:
        raise ValueError("start point lies inside the absorbing shell")
    return _torsion_values(body, x[None, :], cfg)[0]


def exit_time_mean(body: ConvexBody, x, cfg: WosConfig) -> Estimate:
    """Expected exit time of standard Brownian motion started at x:
    twice the torsion value (same walks, scaled)."""
    return torsion_value(body, x, cfg).scaled(2.0)


def _usable_probe(body: ConvexBody, position, normal, delta, shell):
    probe = position + delta * normal
    # outside the body the distance is < 0 <= shell
    if not body.distances_many(probe[None, :])[0] > shell:
        return None
    return probe


def normal_derivative(body: ConvexBody, bp: BoundaryPoint,
                      cfg: WosConfig) -> Estimate:
    """One-sided divided difference u(x + delta nu) / delta (u vanishes on
    the boundary), with delta = fd_delta * diameter.

    On the boundary -lap u = 1 reads u_nu,nu = -1 + (n-1) H u_nu, with H
    the mean curvature (1/R on a ball of radius R), so to first order

        u(x + delta nu) / delta = u_nu - (delta/2) (1 - (n-1) H u_nu)
                                  + O(delta^2).

    That term is exactly delta/(2n) on balls and delta/2 on flat faces.
    The bias is downward, the lenient direction for checking upper
    gradient bounds (it can hide a small excess over the bound), only
    where (n-1) H u_nu < 1.  If the probe exits the body (corners), delta
    shrinks geometrically up to 8 times before the point is rejected.
    """
    shell = cfg.shell_width * body.diameter
    delta = cfg.fd_delta * body.diameter
    for _ in range(9):
        probe = _usable_probe(body, bp.position, bp.inward_normal, delta, shell)
        if probe is not None:
            return torsion_value(body, probe, cfg).scaled(1.0 / delta)
        delta *= 0.5
    raise ValueError("no usable probe along the inward normal "
                     "(boundary point too close to a corner)")


@dataclass(frozen=True)
class MaxNormalDerivative:
    """Sampled maximum of the inward normal derivative: the largest of many
    noisy probe estimates, so it is biased upward as an estimate of the true
    boundary maximum, and ``estimate.stderr`` is that one probe's stderr,
    which understates the spread of the maximum.  The probes share walks,
    which narrows that bias but does not remove it.  ``evaluations`` probes
    were estimated and ``rejected`` were skipped as corner-pinched; together
    they are the boundary sample's size."""

    estimate: Estimate
    location: np.ndarray
    normal: np.ndarray
    evaluations: int
    rejected: int


def max_normal_derivative(body: ConvexBody, cfg: WosConfig,
                          boundary_samples: int) -> MaxNormalDerivative:
    """Maximize the inward normal derivative over the body's stratified
    boundary sample: one probe per point, skipping (and counting)
    corner-pinched points, keeping the largest estimate.  All probes run
    the walks of cfg, so their errors are correlated (common random numbers)."""
    if boundary_samples < 1:
        raise ValueError("boundary_samples must be >= 1")
    pos, nrm = body.stratified_boundary(boundary_samples,
                                        rng.derive(cfg.seed, _TAG_MAXGRAD))
    best = None  # (Estimate, position, normal)
    evaluations = rejected = 0
    for p, v in zip(pos, nrm):
        bp = BoundaryPoint(position=p, inward_normal=v)
        try:
            est = normal_derivative(body, bp, cfg)
        except ValueError:
            rejected += 1  # corner-pinched probe; excluded by contract
            continue
        evaluations += 1
        if best is None or est.mean > best[0].mean:
            best = (est, p, v)
    if best is None:
        raise ValueError("no usable boundary points (all probes rejected)")
    est, p, v = best
    return MaxNormalDerivative(estimate=est, location=p, normal=v,
                               evaluations=evaluations, rejected=rejected)


def lifetime_bound_check(body: ConvexBody, epsilon: float, cfg: WosConfig,
                         boundary_samples: int = 8) -> BoundReport:
    """Start walks a distance epsilon inside sampled boundary points and
    compare their exit times against the assembled bound at its optimal
    horizon: eps (4/sqrt(pi)) (1/sqrt(n)) (vol/omega_n)^{1/n}.

    All starts run in one walk loop on shared draws (walk i takes the same
    directions from every start), and each start's exit time equals its
    own ``exit_time_mean`` call bit for bit."""
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
    bound = minimized_bound(epsilon, body.dimension, cg.volume(body, cfg).mean)
    worst = None
    per_point = []
    for est in _torsion_values(body, np.array(starts), cfg):
        est = est.scaled(2.0)
        per_point.append(est.mean)
        if worst is None or est.mean > worst.mean:
            worst = est
    report = make_report(
        "exit_time_near_boundary", worst, bound,
        provenance="exit time from an eps-deep start <= "
                   "eps (4/sqrt(pi)) n^(-1/2) (vol/omega_n)^(1/n)",
        details={"epsilon": epsilon, "points_used": len(starts),
                 "per_point_means": per_point})
    return report
