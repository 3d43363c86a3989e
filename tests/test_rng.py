"""Determinism and statistical sanity of the counter-based streams."""

import numpy as np
import pytest

from torsion_bound import rng

import oracles


class TestUniforms:
    def test_deterministic(self):
        ids = np.arange(100, dtype=np.uint64)
        a = rng.uniforms(42, ids, 3, 4)
        b = rng.uniforms(42, ids, 3, 4)
        assert np.array_equal(a, b)

    def test_partition_invariant(self):
        ids = np.arange(1000, dtype=np.uint64)
        whole = rng.uniforms(7, ids, 0, 2)
        parts = np.vstack([rng.uniforms(7, ids[:10], 0, 2),
                           rng.uniforms(7, ids[10:400], 0, 2),
                           rng.uniforms(7, ids[400:], 0, 2)])
        assert np.array_equal(whole, parts)

    def test_open_interval(self):
        u = rng.uniforms(1, np.arange(100_000, dtype=np.uint64), 0, 1)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_moments(self):
        u = rng.uniforms(3, np.arange(200_000, dtype=np.uint64), 0, 1)[:, 0]
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_streams_uncorrelated(self):
        ids = np.arange(100_000, dtype=np.uint64)
        a = rng.uniforms(5, ids, 0, 1)[:, 0]
        b = rng.uniforms(5, ids, 1, 1)[:, 0]  # next counter
        c = rng.uniforms(6, ids, 0, 1)[:, 0]  # different key
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.01

    def test_keys_differ(self):
        ids = np.arange(16, dtype=np.uint64)
        assert not np.array_equal(rng.uniforms(1, ids, 0, 1),
                                  rng.uniforms(2, ids, 0, 1))


class TestUnitVectors:
    def test_unit_norm_all_dims(self):
        ids = np.arange(500, dtype=np.uint64)
        for dim in (2, 3, 4, 6):
            v = rng.unit_vectors(11, ids, 0, dim)
            assert v.shape == (500, dim)
            assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)

    def test_mean_near_zero(self):
        ids = np.arange(100_000, dtype=np.uint64)
        for dim in (2, 3, 5):
            v = rng.unit_vectors(13, ids, 0, dim)
            assert np.all(np.abs(v.mean(axis=0)) < 0.02)

    def test_coordinate_symmetry_3d(self):
        # each coordinate of a uniform direction has variance 1/dim
        v = rng.unit_vectors(17, np.arange(100_000, dtype=np.uint64), 0, 3)
        assert np.allclose(v.var(axis=0), 1.0 / 3.0, atol=0.01)


def _turn_in_long_double(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    angle = 2.0 * np.arccos(np.longdouble(-1.0)) * u.astype(np.longdouble)
    return np.cos(angle), np.sin(angle)


class TestDirectionMaps:
    """The turn kernel of n = 2, 3 and Shoemake's map of n = 4."""

    def test_turns_match_long_double(self):
        ids = np.arange(1_000_000, dtype=np.uint64)
        keys = rng.unit_keys(41, ids)
        v = rng.draw_unit_vectors(keys, 3, 2)
        cos, sin = _turn_in_long_double(rng.draw_uniforms(keys, 3, 1)[:, 0])
        assert np.abs(v[:, 0] - cos).max() <= 8e-16
        assert np.abs(v[:, 1] - sin).max() <= 8e-16
        # the ends of (0, 1), the quarter turns, and both sides of every
        # half-step edge between table turns
        half = (np.arange(rng._TURNS) + 0.5) / rng._TURNS
        u = np.concatenate(([2.0**-54, 0.25, 0.5, 0.75, 1.0 - 2.0**-54],
                            half, np.nextafter(half, 0.0),
                            np.nextafter(half, 1.0)))
        c, s = np.empty_like(u), np.empty_like(u)
        rng._turn(u, c, s)
        cos, sin = _turn_in_long_double(u)
        assert np.abs(c - cos).max() <= 8e-16
        assert np.abs(s - sin).max() <= 8e-16
        assert np.array_equal(c[1:4], [0.0, -1.0, 0.0])
        assert np.array_equal(s[1:4], [1.0, 0.0, -1.0])

    def test_table_is_correctly_rounded(self):
        cos, sin, coef = oracles.turn_table()
        assert np.array_equal(rng._TURN_COS, cos)
        assert np.array_equal(rng._TURN_SIN, sin)
        assert (rng._TURN_COS[-1], rng._TURN_SIN[-1]) == (1.0, 0.0)
        assert (rng._S1, rng._C2, rng._C4, rng._S3, rng._S5) == coef

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unit_length(self, dim):
        keys = rng.unit_keys(43, np.arange(200_000, dtype=np.uint64))
        v = rng.draw_unit_vectors(keys, 1, dim).astype(np.longdouble)
        length = np.sqrt(np.square(v).sum(axis=1))
        assert np.abs(length - 1.0).max() <= 4.5e-16

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rows_do_not_hang_on_the_call(self, dim):
        keys = rng.unit_keys(47, np.arange(1500, dtype=np.uint64))
        full = rng.draw_unit_vectors(keys, 5, dim)
        gen = np.random.default_rng(dim)
        for count in (0, 1, 2, 7, 300):
            pick = np.sort(gen.choice(keys.size, count, replace=False))
            rows = rng.draw_unit_vectors(keys[pick], 5, dim)
            assert rows.shape == (count, dim)
            assert np.array_equal(rows, full[pick])

    def test_shoemake_map_is_uniform(self):
        from scipy import stats

        keys = rng.unit_keys(53, np.arange(100_000, dtype=np.uint64))
        v = rng.draw_unit_vectors(keys, 0, 4)
        # on S^3, x1^2 + x2^2 is uniform on (0, 1)
        assert stats.kstest(v[:, 0]**2 + v[:, 1]**2, "uniform").pvalue > 1e-5
        # each x_i has variance 1/4, and x_i^2 a standard deviation of
        # 1/4: over 100k draws a standard error of 7.9e-4, five of them
        assert np.allclose(v.var(axis=0), 0.25, rtol=0.0, atol=0.004)


class TestPerSlotReference:
    """The draws equal the earlier per-slot implementation bit for bit,
    also at counters whose words wrap the 64-bit arithmetic."""

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_draws_equal(self, dim):
        for counter in (0, 7, 2**20, 2**58 + 3, 2**64 - 1, 2**70 + 5):
            for count in (0, 1, 7, 1500):
                ids = np.arange(5, 5 + 2 * count, 2, dtype=np.uint64)
                keys = rng.unit_keys(29, ids)
                ref_u = oracles.uniforms_per_slot(29, ids, counter, dim)
                ref_v = oracles.unit_vectors_per_slot(29, ids, counter, dim)
                assert ref_u.shape == (count, dim)
                assert np.array_equal(rng.uniforms(29, ids, counter, dim),
                                      ref_u)
                assert np.array_equal(rng.draw_uniforms(keys, counter, dim),
                                      ref_u)
                assert np.array_equal(
                    rng.unit_vectors(29, ids, counter, dim), ref_v)
                assert np.array_equal(
                    rng.draw_unit_vectors(keys, counter, dim), ref_v)

    def test_strided_units_and_slot_cap(self):
        ids = np.arange(3000, dtype=np.uint64)[::3]
        assert np.array_equal(rng.uniforms(4, ids, 9, 5),
                              oracles.uniforms_per_slot(4, ids, 9, 5))
        # all MAX_SLOTS slots are allowed, and they do not reach the next
        # counter's: a unit's 2 x MAX_SLOTS draws are all distinct
        full = rng.uniforms(4, ids, 9, rng.MAX_SLOTS)
        assert np.array_equal(full, oracles.uniforms_per_slot(4, ids, 9,
                                                              rng.MAX_SLOTS))
        both = np.sort(np.hstack([full, rng.uniforms(4, ids, 10, rng.MAX_SLOTS)]),
                       axis=1)
        assert np.all(np.diff(both, axis=1) > 0.0)
        with pytest.raises(ValueError, match="MAX_SLOTS"):
            rng.uniforms(4, ids, 0, rng.MAX_SLOTS + 1)


class TestDerive:
    def test_stable(self):
        assert rng.derive(1, 2, 3) == rng.derive(1, 2, 3)

    def test_sensitive_to_words(self):
        seen = {rng.derive(1), rng.derive(1, 0), rng.derive(1, 1),
                rng.derive(2), rng.derive(1, 0, 0)}
        assert len(seen) == 5


class TestPathGenerator:
    def test_independent_and_reproducible(self):
        a1 = rng.path_generator(5, 0).standard_normal(8)
        a2 = rng.path_generator(5, 0).standard_normal(8)
        b = rng.path_generator(5, 1).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestPathDraws:
    def test_rows_equal_path_generator_streams(self):
        normals, unif = np.empty((5, 37)), np.empty((5, 37))
        rng.path_draws(9, 3, normals, unif)
        for i in range(5):
            gen = rng.path_generator(9, 3 + i)
            assert np.array_equal(normals[i], gen.standard_normal(37))
            assert np.array_equal(unif[i], gen.random(37))
