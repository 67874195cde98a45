"""Tests for the hash-unit model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.hashing import HashUnit, base_hash, hash_family, mix64


class TestMix64:
    def test_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_seed_changes_output(self):
        assert mix64(42, seed=1) != mix64(42, seed=2)

    def test_output_is_64_bit(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(value) < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_avalanche_on_increment(self, x):
        # Adjacent inputs should differ in many bits (weak avalanche check).
        a = mix64(x)
        b = mix64((x + 1) & (2**64 - 1))
        assert bin(a ^ b).count("1") >= 8


class TestHashUnit:
    def test_deterministic_bytes(self):
        unit = HashUnit(seed=7)
        assert unit.hash_bytes(b"abc") == unit.hash_bytes(b"abc")

    def test_different_keys_differ(self):
        unit = HashUnit(seed=7)
        assert unit.hash_bytes(b"abc") != unit.hash_bytes(b"abd")

    def test_index_in_range(self):
        unit = HashUnit(seed=7)
        for i in range(200):
            assert 0 <= unit.index(str(i).encode(), 37) < 37

    def test_index_rejects_nonpositive_size(self):
        unit = HashUnit(seed=7)
        with pytest.raises(ValueError):
            unit.index(b"x", 0)

    def test_digest_width(self):
        unit = HashUnit(seed=7)
        for bits in (1, 8, 16, 24, 64):
            assert 0 <= unit.digest(b"key", bits) < (1 << bits)

    def test_digest_rejects_bad_width(self):
        unit = HashUnit(seed=7)
        with pytest.raises(ValueError):
            unit.digest(b"key", 0)
        with pytest.raises(ValueError):
            unit.digest(b"key", 65)

    def test_index_distribution_roughly_uniform(self):
        unit = HashUnit(seed=3)
        size = 16
        counts = [0] * size
        n = 8000
        for i in range(n):
            counts[unit.index(i.to_bytes(8, "big"), size)] += 1
        expected = n / size
        for c in counts:
            assert 0.7 * expected < c < 1.3 * expected

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_hash_int_vs_bytes_consistency(self, data):
        unit = HashUnit(seed=11)
        # Just determinism and range; int/bytes paths are independent hashes.
        assert unit.hash_bytes(data) == unit.hash_bytes(data)
        assert 0 <= unit.hash_bytes(data) < 2**64


class TestHashFamily:
    def test_count(self):
        assert len(hash_family(5)) == 5
        assert hash_family(0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hash_family(-1)

    def test_members_are_independent(self):
        units = hash_family(4)
        seeds = {u.seed for u in units}
        assert len(seeds) == 4
        values = {u.hash_bytes(b"same-key") for u in units}
        assert len(values) == 4

    def test_reproducible(self):
        a = hash_family(3, base_seed=9)
        b = hash_family(3, base_seed=9)
        assert [u.seed for u in a] == [u.seed for u in b]


class TestBaseHashPipeline:
    """The single-pass pipeline: one byte pass, seeded integer derivations."""

    def test_hash_bytes_equals_derive_of_base(self):
        unit = HashUnit(seed=77)
        for key in (b"", b"a", b"abc", bytes(range(37))):
            assert unit.hash_bytes(key) == unit.derive(base_hash(key))

    def test_key_hash_parameter_matches_byte_path(self):
        unit = HashUnit(seed=5)
        key = b"cached-connection-key"
        base = base_hash(key)
        assert unit.hash_bytes(key, key_hash=base) == unit.hash_bytes(key)
        assert unit.index(key, 97, key_hash=base) == unit.index(key, 97)
        assert unit.digest(key, 16, key_hash=base) == unit.digest(key, 16)

    def test_index_base_and_digest_base_match_bytes_path(self):
        unit = HashUnit(seed=13)
        key = b"p4-mirror-key"
        base = base_hash(key)
        assert unit.index_base(base, 64) == unit.index(key, 64)
        assert unit.digest_base(base, 16) == unit.digest(key, 16)

    def test_key_hash_skips_byte_pass(self):
        from repro.asicsim import hashing

        unit = HashUnit(seed=3)
        base = base_hash(b"some-key")
        before = hashing.BASE_HASH_CALLS
        unit.hash_bytes(b"some-key", key_hash=base)
        unit.index(b"some-key", 31, key_hash=base)
        unit.digest(b"some-key", 16, key_hash=base)
        assert hashing.BASE_HASH_CALLS == before

    def test_length_separates_zero_prefixed_keys(self):
        # CRCs of b"\x00" * n collide for some polynomial/init combos; the
        # length term keeps such keys apart in the base.
        bases = {base_hash(b"\x00" * n) for n in range(1, 16)}
        assert len(bases) == 15


class TestCorrelatedCollisionRegression:
    """Keys colliding in CRC-32 must not collide in every derived hash.

    The pre-fix pipeline funnelled every stage index, digest and Bloom way
    through one 32-bit CRC, so a CRC-colliding key pair collided in *all* of
    them at once (breaking the independent-hash assumption of the paper's
    §5.1 digest analysis).  This pair was found by birthday search; both
    keys CRC-32 to 0xc26ad9b4.
    """

    CRC32_COLLIDING_A = bytes.fromhex("e0eb47e055636f44135cb18475")
    CRC32_COLLIDING_B = bytes.fromhex("cc49fb8d935e33368dae569aa1")

    def test_pair_actually_collides_in_crc32(self):
        import zlib

        assert zlib.crc32(self.CRC32_COLLIDING_A) == zlib.crc32(
            self.CRC32_COLLIDING_B
        )

    def test_bases_differ(self):
        assert base_hash(self.CRC32_COLLIDING_A) != base_hash(
            self.CRC32_COLLIDING_B
        )

    def test_units_disagree_on_crc_colliding_pair(self):
        # Every stage/digest/Bloom-way unit must separate the pair: a single
        # shared funnel would make all of them collide simultaneously.
        for unit in hash_family(8):
            assert unit.hash_bytes(self.CRC32_COLLIDING_A) != unit.hash_bytes(
                self.CRC32_COLLIDING_B
            )
            assert unit.digest(self.CRC32_COLLIDING_A, 16) != unit.digest(
                self.CRC32_COLLIDING_B, 16
            )


class TestBatchedDerivation:
    """The vectorized batch helpers must be bit-identical to the scalar
    pipeline for every batch size (including the numpy-bypass small sizes)."""

    def test_base_hash_many_matches_scalar(self):
        from repro.asicsim import hashing
        from repro.asicsim.hashing import base_hash_many

        keys = [bytes([i, i * 3 % 256, 7]) * (1 + i % 4) for i in range(50)]
        before = hashing.BASE_HASH_CALLS
        batched = base_hash_many(keys)
        assert hashing.BASE_HASH_CALLS == before + len(keys)
        assert batched == [base_hash(k) for k in keys]

    @pytest.mark.parametrize("size", [0, 1, 7, 15, 16, 64, 1024])
    def test_splitmix64_many_matches_scalar(self, size):
        # The rows kernel over many bases and many seed mixes (0 included)
        # is the scalar round per (mix, base) pair, row by row.
        from repro.asicsim.hashing import _splitmix64, splitmix64_rows

        values = [mix64(i, 99) for i in range(size)] + [0, 2**64 - 1][: size]
        mixes = [0, _splitmix64(0xD1B0), HashUnit(seed=3).seed_mix, 2**64 - 1]
        rows = splitmix64_rows(values, mixes)
        assert rows.shape == (len(mixes), len(values))
        assert rows.tolist() == [
            [_splitmix64(v ^ mix) for v in values] for mix in mixes
        ]

    def test_results_are_python_ints(self):
        # Downstream modulo/shift arithmetic must see exact Python ints,
        # not numpy scalars (whose % and >> could differ in type).
        from repro.asicsim.hashing import splitmix64_rows

        rows = splitmix64_rows(list(range(32)), [0, HashUnit(seed=3).seed_mix])
        assert all(type(v) is int for row in rows.tolist() for v in row)
        assert all(type(v) is int for v in rows.ravel().tolist())
