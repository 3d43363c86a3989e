"""Deterministic, splittable random streams for all Monte Carlo sampling.

Every draw in the library is a pure function of a 64-bit key plus integer
coordinates, so results do not depend on batch sizes or call order:

* ``uniforms(key, units, counter, nslots)`` hashes ``(key, unit, counter,
  slot)`` to a double in (0, 1) with a splitmix64-style finalizer.  A
  "unit" is a walk index, candidate index, or path index; any partition
  of the units into batches reproduces the same values bit for bit.
  It is ``draw_uniforms(unit_keys(key, units), counter, nslots)``: a
  walk keys its units once and draws from the keys at every step.
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


def draw_unit_vectors(keys: np.ndarray, counter: int, dim: int) -> np.ndarray:
    """``unit_vectors`` from per-unit keys.  Dimension 1 takes the sign of
    u - 1/2, the sign of the Gaussian ndtri(u); dimensions 2 and 3 use
    exact angle maps (1 and 2 uniforms); higher ones normalize a Gaussian.

    The maps write the coordinate rows of a (dim, k) array from the slot
    rows, and return its transpose: no write is strided, and cos and sin
    run on contiguous rows, so the values do not hang on which of numpy's
    loops (vector or scalar) a layout selects."""
    if dim == 1:
        return np.where(draw_uniforms(keys, counter, 1) < 0.5, -1.0, 1.0)
    if dim == 2:
        theta = draw_uniforms(keys, counter, 1).T[0]
        theta *= 2.0 * np.pi
        out = np.empty((2, len(keys)))
        np.cos(theta, out=out[0])
        np.sin(theta, out=out[1])
        return out.T
    if dim == 3:
        u, phi = draw_uniforms(keys, counter, 2).T
        out = np.empty((3, len(keys)))
        z = np.subtract(2.0 * u, 1.0, out=out[2])
        s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        phi *= 2.0 * np.pi
        np.multiply(s, np.cos(phi), out=out[0])
        np.multiply(s, np.sin(phi), out=out[1])
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
