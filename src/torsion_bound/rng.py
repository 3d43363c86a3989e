"""Deterministic, splittable random streams for all Monte Carlo sampling.

Every draw in the library is a pure function of a 64-bit key plus integer
coordinates, so results do not depend on batch sizes or call order:

* ``uniforms(key, units, counter, nslots)`` hashes ``(key, unit, counter,
  slot)`` to a double in (0, 1) with a splitmix64-style finalizer.  A
  "unit" is a walk index, candidate index, or path index; any partition
  of the units into batches reproduces the same values bit for bit.
  It is ``draw_uniforms(unit_keys(key, units), counter, nslots)``: a
  walk keys its units once and draws from the keys at every step.
* ``unit_vectors(key, units, counter, dim)`` maps a unit's slots at one
  counter to a direction on S^{dim-1}: the sign of u - 1/2 in dimension
  1, a turn (cos 2 pi u, sin 2 pi u) in 2, Archimedes' z = 2u - 1 with a
  turn in 3, Shoemake's map (two turns on radii sqrt(w), sqrt(1 - w)) in
  4, and a normalized ndtri Gaussian above.  The turns come from a
  table of 1025 turns, an exact remainder and a short Taylor step, within
  8e-16 of cos and sin of 2 pi u, without libm's scalar cos and sin.
  Every map is elementwise in the keys, with no path chosen by the
  number of keys, so a unit's direction depends on its key alone.
* ``path_generator(key, index)`` builds a counter-based Philox generator
  keyed by ``(key, index)``: the long private stream of one 1-D path.
* ``path_draws(key, first, normals, unif)`` fills a block of such paths
  at once for the 1-D simulation: row i holds path ``first + i``'s
  normals and then its uniforms, exactly as ``path_generator`` would
  draw them, so any partition of the paths into blocks reproduces the
  same values.

``derive`` folds operation tags and sub-indices into fresh keys so that
distinct operations sharing one user seed consume disjoint streams.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_STEP_MULT = 0xD1342543DE82EF95

# Maximum slots addressable per counter value; sampling code never needs
# more than the ambient dimension plus a selector.
MAX_SLOTS = 64


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (masked to 64 bits)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


# the kernel's words as numpy scalars, made once rather than per call
_U30, _U27, _U31, _U11 = (np.uint64(b) for b in (30, 27, 31, 11))
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_UGOLDEN = np.uint64(_GOLDEN)
_USTEP = np.uint64(_STEP_MULT)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array (returned)."""
    t = np.right_shift(z, _U30)
    z ^= t
    z *= _MUL1
    z ^= np.right_shift(z, _U27, out=t)
    z *= _MUL2
    z ^= np.right_shift(z, _U31, out=t)
    return z


def derive(key: int, *words: int) -> int:
    """Fold integer words into ``key``, returning a new 64-bit key.

    Used to split one user seed into independent sub-streams per
    operation, attempt, or member index.
    """
    z = _mix_int((int(key) ^ 0xA076_1D64_78BD_642F) & _MASK)
    for w in words:
        z = _mix_int((z + (int(w) & _MASK) * _GOLDEN) & _MASK)
    return z


def unit_keys(key: int, units: np.ndarray) -> np.ndarray:
    """Per-unit keys: unit ``units[i]``'s draws depend on it only
    through element i, at every counter."""
    u = np.asarray(units, dtype=np.uint64)
    z = u + np.uint64(derive(key))
    z *= _UGOLDEN
    return _mix(z)


def draw_uniforms(keys: np.ndarray, counter: int, nslots: int) -> np.ndarray:
    """``uniforms`` from per-unit keys, all slots in one pass.

    The words are slot-major, (nslots, k) from ``np.add.outer``, so each
    operation runs along rows of k keys; the result is their transpose.
    The uint64 words wrap modulo 2^64 as array operations, and the
    counter's word is reduced in Python before it becomes a numpy scalar,
    so no counter raises numpy's scalar-overflow warning.  Fixed cost
    matters here, since a walk's late steps draw a few rows each: the
    kernel's constants are numpy scalars made once, and it allocates one
    word array, one shift buffer and the result."""
    if nslots > MAX_SLOTS:
        raise ValueError(f"nslots {nslots} exceeds MAX_SLOTS {MAX_SLOTS}")
    first = np.uint64(int(counter) * MAX_SLOTS & _MASK)
    words = np.arange(nslots, dtype=np.uint64)
    words += first
    words *= _USTEP
    z = _mix(np.add.outer(words, keys))
    z >>= _U11
    # 53-bit mantissa, offset keeps draws strictly inside (0, 1)
    u = np.multiply(z, 2.0**-53)
    u += 2.0**-54
    return u.T


# Turns: cos and sin of 2 pi k / _TURNS for k = 0.._TURNS, the endpoint
# exactly (1, 0).  The first octant is taken in long double and rounded
# once to double, as are the Taylor coefficients of the remainder step;
# tests check both against 40-digit values.  The octant symmetries give
# the rest of the table, exact zeros and ones included.
_TURNS = 1024
_PI = np.arccos(np.longdouble(-1.0))


def _turn_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    angle = np.arange(n // 8 + 1, dtype=np.longdouble) * (2.0 * _PI / n)
    c, s = np.cos(angle).astype(float), np.sin(angle).astype(float)
    cq, sq = np.concatenate((c, s[-2::-1])), np.concatenate((s, c[-2::-1]))
    cos = np.concatenate((cq, -sq[1:], -cq[1:], sq[1:])) + 0.0  # no -0.0
    sin = np.concatenate((sq, cq[1:], -sq[1:], -cq[1:])) + 0.0
    return cos, sin


_TURN_COS, _TURN_SIN = _turn_table(_TURNS)
# the remainder delta = h r, h = 2 pi / _TURNS and |r| <= 1/2, enters as r:
# 1 - cos delta = r^2 (_C2 - r^2 _C4), sin delta = r (_S1 - r^2 (_S3 - r^2 _S5))
_H = 2.0 * _PI / _TURNS
_S1, _C2, _C4, _S3, _S5 = (float(c) for c in (_H, _H**2 / 2, _H**4 / 24,
                                              _H**3 / 6, _H**5 / 120))


def _turn(u: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos and sin of 2 pi u, elementwise, written to ``cos`` and ``sin``.

    k = rint(_TURNS u) picks a table turn; the remainder r = _TURNS u - k
    is exact, and the Taylor steps to delta^4 in cos and delta^5 in sin
    leave a truncation below 2e-18 at |delta| <= pi / _TURNS.  The angle
    sums add the small corrections to the table value last."""
    t = u * float(_TURNS)
    k = np.rint(t)
    r = np.subtract(t, k, out=t)
    idx = k.astype(np.intp)
    c, s = _TURN_COS.take(idx), _TURN_SIN.take(idx)
    r2 = r * r
    one_minus_cos = _C4 * r2
    np.subtract(_C2, one_minus_cos, out=one_minus_cos)
    one_minus_cos *= r2
    sin_d = _S5 * r2
    np.subtract(_S3, sin_d, out=sin_d)
    sin_d *= r2
    np.subtract(_S1, sin_d, out=sin_d)
    sin_d *= r
    # cos(a + d) = C - (C (1 - cos d) + S sin d)
    a, b = c * one_minus_cos, s * sin_d
    a += b
    np.subtract(c, a, out=cos)
    # sin(a + d) = S + (C sin d - S (1 - cos d))
    np.multiply(c, sin_d, out=c)
    np.multiply(s, one_minus_cos, out=b)
    c -= b
    np.add(s, c, out=sin)


def draw_unit_vectors(keys: np.ndarray, counter: int, dim: int) -> np.ndarray:
    """``unit_vectors`` from per-unit keys.

    Dimension 1 takes the sign of u - 1/2, the sign of the Gaussian
    ndtri(u).  Dimension 2 is the turn (cos 2 pi u, sin 2 pi u); dimension
    3 is (s cos 2 pi v, s sin 2 pi v, z) with z = 2u - 1 and
    s = sqrt(1 - z^2), uniform by Archimedes' theorem.  Dimension 4 is
    Shoemake's map (Graphics Gems III, 1992) on the slots (w, a, b):
    (sqrt(w) cos 2 pi a, sqrt(w) sin 2 pi a, sqrt(1 - w) cos 2 pi b,
    sqrt(1 - w) sin 2 pi b), exactly uniform on S^3: it takes 3 slots
    where a Gaussian takes 4 ndtri values and a norm.  Higher dimensions
    normalize the Gaussian ndtri(u) of dim slots.

    The turns (``_turn``) do not call libm, whose float64 cos and sin run
    one value at a time: a table of _TURNS + 1 turns, the exact remainder
    and a short Taylor step give cos and sin within 8e-16 (1.1e-16 seen
    on 2M draws) of cos and sin of 2 pi u in long double, over the whole
    of (0, 1).  On calls of a few keys the kernel's fixed cost is above
    libm's, but no call size takes another path: were it so, a walk's
    direction would hang on how many walks are still alive in its call.

    The maps write the coordinate rows of a (dim, k) array from the slot
    rows, and return its transpose: no write is strided, and the turn and
    the norms run on contiguous rows, so the values do not hang on which
    of numpy's loops (vector or scalar) a layout selects."""
    if dim == 1:
        return np.where(draw_uniforms(keys, counter, 1) < 0.5, -1.0, 1.0)
    out = np.empty((dim, len(keys)))
    if dim == 2:
        _turn(draw_uniforms(keys, counter, 1).T[0], out[0], out[1])
        return out.T
    if dim == 3:
        u, phi = draw_uniforms(keys, counter, 2).T
        _turn(phi, out[0], out[1])
        z = np.subtract(2.0 * u, 1.0, out=out[2])
        out[:2] *= np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return out.T
    if dim == 4:
        w, a, b = draw_uniforms(keys, counter, 3).T
        _turn(a, out[0], out[1])
        _turn(b, out[2], out[3])
        out[:2] *= np.sqrt(w)
        out[2:] *= np.sqrt(np.subtract(1.0, w, out=w))
        return out.T
    g = ndtri(draw_uniforms(keys, counter, dim).T)
    if dim < 8:  # numpy's norm: in turn, as a sum down the rows adds
        norm = np.sqrt(np.square(g).sum(axis=0))
    else:  # pairwise, along contiguous rows of 8 or more
        norm = np.linalg.norm(g.T.copy(), axis=1)
    norm[norm < 1e-300] = 1.0
    g /= norm
    return g.T


def uniforms(key: int, units: np.ndarray, counter: int, nslots: int) -> np.ndarray:
    """Draws in (0, 1), C-ordered rows of shape ``(len(units), nslots)``
    (as for ``unit_vectors``): matrix products round by layout.

    ``counter`` advances per use site (e.g. per rejection round);
    ``nslots`` is at most MAX_SLOTS, so one counter's slots never reach
    the next counter's.
    """
    return np.ascontiguousarray(draw_uniforms(unit_keys(key, units), counter,
                                              nslots))


def unit_vectors(key: int, units: np.ndarray, counter: int, dim: int) -> np.ndarray:
    """Uniform directions on the unit sphere S^{dim-1}, one row per unit."""
    return np.ascontiguousarray(draw_unit_vectors(unit_keys(key, units),
                                                  counter, dim))


def _path_key(key: int, index: int) -> np.ndarray:
    return np.array([int(key) & _MASK, int(index) & _MASK], dtype=np.uint64)


def path_generator(key: int, index: int) -> np.random.Generator:
    """Philox generator for path ``index``; independent across indices."""
    return np.random.Generator(np.random.Philox(key=_path_key(key, index)))


def path_draws(key: int, first: int, normals: np.ndarray,
               unif: np.ndarray) -> None:
    """Fill row i of ``normals`` and ``unif`` (C-contiguous, equal shapes
    ``(count, nsteps)``) with the draws of path ``first + i``.

    Row i equals ``path_generator(key, first + i).standard_normal(nsteps)``
    and the ``random(nsteps)`` drawn after it.  One Philox bit generator
    is re-keyed per path through its state setter, which costs less than
    building a generator per path; filling in place lets a caller reuse
    its block arrays.
    """
    bits = np.random.Philox(key=_path_key(key, first))
    gen = np.random.Generator(bits)
    fresh = bits.state
    for i in range(len(normals)):
        fresh["state"]["key"] = _path_key(key, first + i)
        bits.state = fresh
        gen.standard_normal(out=normals[i])
        gen.random(out=unif[i])
