"""Tests for transactional register arrays and Bloom filters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.registers import BloomFilter, RegisterArray


class TestRegisterArray:
    def test_read_write(self):
        arr = RegisterArray(8, width=4)
        arr.write(3, 15)
        assert arr.read(3) == 15

    def test_width_enforced(self):
        arr = RegisterArray(8, width=4)
        with pytest.raises(ValueError):
            arr.write(0, 16)
        with pytest.raises(ValueError):
            arr.write(0, -1)

    def test_transactional_visibility(self):
        # An update is visible to the immediately following read.
        arr = RegisterArray(2, width=8)
        arr.write(1, arr.read(1) + 1)
        assert arr.read(1) == 1

    def test_clear(self):
        arr = RegisterArray(4)
        arr.write(2, 1)
        arr.clear()
        assert arr.read(2) == 0

    def test_size_accounting(self):
        arr = RegisterArray(64, width=1)
        assert arr.bits == 64
        assert arr.bytes == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RegisterArray(0)
        with pytest.raises(ValueError):
            RegisterArray(4, width=0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(size_bytes=64, num_hashes=4)
        keys = [f"key-{i}".encode() for i in range(40)]
        for k in keys:
            bf.insert(k)
        for k in keys:
            assert bf.query(k).positive
            assert not bf.query(k).false_positive

    def test_empty_filter_all_negative(self):
        bf = BloomFilter(size_bytes=64)
        assert not bf.query(b"anything").positive

    def test_false_positives_flagged(self):
        bf = BloomFilter(size_bytes=8, num_hashes=2)  # tiny: saturates
        for i in range(60):
            bf.insert(f"member-{i}".encode())
        fp_seen = 0
        for i in range(200):
            q = bf.query(f"outsider-{i}".encode())
            if q.positive:
                assert q.false_positive
                fp_seen += 1
        assert fp_seen > 0

    def test_clear_resets(self):
        bf = BloomFilter(size_bytes=64)
        bf.insert(b"x")
        bf.clear()
        assert not bf.query(b"x").positive
        assert bf.population == 0
        assert bf.fill_ratio == 0.0

    def test_fill_ratio_grows(self):
        bf = BloomFilter(size_bytes=32, num_hashes=4)
        before = bf.fill_ratio
        bf.insert(b"a")
        assert bf.fill_ratio > before

    def test_expected_fp_rate_monotone_in_population(self):
        bf = BloomFilter(size_bytes=256, num_hashes=4)
        assert bf.expected_false_positive_rate(0) == 0.0
        assert (
            bf.expected_false_positive_rate(10)
            < bf.expected_false_positive_rate(100)
            < bf.expected_false_positive_rate(1000)
        )

    def test_paper_sizing_256b_low_fp(self):
        # 256 B = 2048 bits comfortably holds the tens of pending
        # connections of one update window with negligible FP rate.
        bf = BloomFilter(size_bytes=256, num_hashes=4)
        assert bf.expected_false_positive_rate(50) < 1e-4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BloomFilter(size_bytes=0)
        with pytest.raises(ValueError):
            BloomFilter(size_bytes=8, num_hashes=0)

    @given(st.sets(st.binary(min_size=4, max_size=12), max_size=60))
    @settings(max_examples=25)
    def test_membership_superset_property(self, members):
        bf = BloomFilter(size_bytes=128, num_hashes=3)
        for m in members:
            bf.insert(m)
        # Every inserted member must be reported present.
        assert all(bf.query(m).positive for m in members)


class TestCountingBloomFilter:
    """Every cell counts the live marks on it; a query reads ``count > 0``."""

    def test_remove_supported(self):
        bf = BloomFilter(size_bytes=128, num_hashes=3)
        bf.insert(b"x")
        assert bf.query(b"x").positive
        assert bf.remove([(b"x", None)]) == 1
        assert not bf.query(b"x").positive
        assert bf.population == 0
        assert bf.fill_ratio == 0.0

    def test_remove_unknown_raises(self):
        bf = BloomFilter(size_bytes=128)
        with pytest.raises(KeyError):
            bf.remove([(b"never-inserted", None)])
        bf.insert(b"once")
        bf.remove([(b"once", None)])
        with pytest.raises(KeyError):
            bf.remove([(b"once", None)])

    def test_overlapping_members_survive_removal(self):
        bf = BloomFilter(size_bytes=1, num_hashes=2)
        a_cells = set(bf._indices(b"a"))
        b = next(
            key
            for key in (f"b-{i}".encode() for i in range(100))
            if a_cells & set(bf._indices(key))
        )
        bf.insert(b"a")
        bf.insert(b)
        assert bf.remove([(b"a", None)]) == 1
        assert bf.query(b).positive and not bf.query(b).false_positive
        assert bf.population == 1

    def test_a_key_marked_twice_needs_two_removes(self):
        bf = BloomFilter(size_bytes=64)
        bf.insert(b"k")
        bf.insert(b"k")
        assert bf.remove([(b"k", None)]) == 0
        assert bf.query(b"k").positive and bf.population == 1
        assert bf.remove([(b"k", None)]) == 1
        assert not bf.query(b"k").positive

    def test_nonzero_cells_are_the_bits_a_query_reads(self):
        bf = BloomFilter(size_bytes=8, num_hashes=4)
        bf.insert(b"a")
        bf.insert(b"b")
        assert bf.nonzero_cells() == sorted(set(bf._indices(b"a") + bf._indices(b"b")))
        bf.remove([(b"a", None)])
        assert bf.nonzero_cells() == sorted(set(bf._indices(b"b")))

    @pytest.mark.parametrize("batch", [3, 60])  # scalar and vectorized passes
    def test_batched_remove_equals_never_inserting(self, batch):
        from repro.asicsim.hashing import base_hash

        keys = [f"key-{i}".encode() for i in range(batch + 40)]
        bf, kept = BloomFilter(size_bytes=16), BloomFilter(size_bytes=16)
        for i, key in enumerate(keys):
            bf.insert(key, base_hash(key) if i % 2 else None)
        for key in keys[batch:]:
            kept.insert(key)
        gone = bf.remove(
            (key, base_hash(key) if i % 3 else None)
            for i, key in enumerate(keys[:batch])
        )
        assert gone == batch
        assert bf._cells == kept._cells
        assert bf.population == kept.population == 40

    def test_queries_share_three_immutable_answers(self):
        bf = BloomFilter(size_bytes=1, num_hashes=1)
        bf.insert(b"member")
        answers = {id(bf.query(f"probe-{i}".encode())) for i in range(64)}
        answers.add(id(bf.query(b"member")))
        assert len(answers) == 3
        with pytest.raises(AttributeError):
            bf.query(b"member").positive = False


class TestBloomKeyHash:
    def test_insert_and_query_with_cached_base(self):
        from repro.asicsim.hashing import base_hash

        bf = BloomFilter(size_bytes=256, num_hashes=4)
        key = b"cached-base-key"
        base = base_hash(key)
        bf.insert(key, base)
        assert bf.query(key).positive
        assert bf.query(key, base).positive
        assert not bf.query(b"other", base_hash(b"other")).positive

    def test_way_indices_match_bytes_path(self):
        from repro.asicsim.hashing import base_hash

        bf = BloomFilter(size_bytes=64, num_hashes=4)
        key = b"index-parity"
        assert bf._indices(key) == bf._indices(key, base_hash(key))

    def test_query_with_key_hash_performs_no_byte_pass(self):
        from repro.asicsim import hashing

        bf = BloomFilter(size_bytes=256, num_hashes=4)
        key = b"no-byte-pass"
        base = hashing.base_hash(key)
        bf.insert(key, base)
        before = hashing.BASE_HASH_CALLS
        bf.query(key, base)
        assert hashing.BASE_HASH_CALLS == before

    def test_counting_filter_remove_with_cached_base(self):
        from repro.asicsim import hashing

        bf = BloomFilter(size_bytes=256, num_hashes=4)
        key = b"counted-key"
        base = hashing.base_hash(key)
        bf.insert(key, base)
        assert bf.query(key).positive
        before = hashing.BASE_HASH_CALLS
        bf.remove([(key, base)])
        assert hashing.BASE_HASH_CALLS == before
        assert not bf.query(key).positive
