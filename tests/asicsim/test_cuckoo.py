"""Tests for the multi-stage cuckoo exact-match table."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim import cuckoo
from repro.asicsim.cuckoo import CuckooTable, DuplicateKey, Location, TableFull


def make_keys(n: int, seed: int = 0) -> list:
    rnd = random.Random(seed)
    return [bytes(rnd.getrandbits(8) for _ in range(13)) for _ in range(n)]


@pytest.fixture
def table() -> CuckooTable:
    return CuckooTable(buckets_per_stage=64, ways=4, stages=4, digest_bits=16)


class TestBasicOperations:
    def test_insert_and_lookup(self, table):
        table.insert(b"key-1", 5)
        result = table.lookup(b"key-1")
        assert result.hit
        assert result.value == 5
        assert not result.false_positive

    def test_insert_result_records(self, table):
        # Built with tuple.__new__ on the hot path: still the named records,
        # with the same field values a keyword build would give.
        from repro.asicsim.cuckoo import InsertResult, Location

        result = table.insert(b"key-1", 5)
        assert type(result) is InsertResult
        assert type(result.location) is Location
        (stage, bucket, way, key, _digest, value), = table.entries()
        assert (key, value) == (b"key-1", 5)
        assert result == InsertResult(location=Location(stage, bucket, way), moves=0)
        assert result.location._fields == ("stage", "bucket", "way")

    def test_miss(self, table):
        assert not table.lookup(b"absent").hit

    def test_duplicate_insert_raises(self, table):
        table.insert(b"key-1", 1)
        with pytest.raises(DuplicateKey):
            table.insert(b"key-1", 2)

    def test_update_in_place(self, table):
        table.insert(b"key-1", 1)
        table.update(b"key-1", 9)
        assert table.lookup(b"key-1").value == 9

    def test_update_missing_raises(self, table):
        with pytest.raises(KeyError):
            table.update(b"nope", 1)

    def test_delete(self, table):
        table.insert(b"key-1", 1)
        table.delete(b"key-1")
        assert not table.lookup(b"key-1").hit
        assert b"key-1" not in table

    def test_delete_missing_raises(self, table):
        with pytest.raises(KeyError):
            table.delete(b"nope")

    def test_get_exact_never_false_positive(self, table):
        table.insert(b"key-1", 7)
        assert table.get_exact(b"key-1") == 7
        assert table.get_exact(b"other") is None

    def test_len_and_contains(self, table):
        keys = make_keys(50)
        for i, k in enumerate(keys):
            table.insert(k, i % 64)
        assert len(table) == 50
        assert all(k in table for k in keys)


class TestGeometry:
    def test_for_capacity_sizing(self):
        t = CuckooTable.for_capacity(1000, target_load=0.5)
        assert t.capacity >= 2000

    def test_for_capacity_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CuckooTable.for_capacity(0)
        with pytest.raises(ValueError):
            CuckooTable.for_capacity(10, target_load=1.5)

    def test_entry_bits_and_sram(self):
        t = CuckooTable(buckets_per_stage=16, digest_bits=16, value_bits=6)
        assert t.entry_bits == 28
        # 4 entries per 112-bit word over the whole capacity.
        assert t.sram_bytes == (t.capacity // 4) * 112 // 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CuckooTable(buckets_per_stage=0)
        with pytest.raises(ValueError):
            CuckooTable(buckets_per_stage=4, ways=0)
        with pytest.raises(ValueError):
            CuckooTable(buckets_per_stage=4, stages=0)


class TestHighLoad:
    def test_fill_to_ninety_percent(self):
        t = CuckooTable.for_capacity(4000, target_load=0.90)
        keys = make_keys(3600, seed=1)
        inserted = 0
        for i, k in enumerate(keys):
            try:
                t.insert(k, i % 64)
                inserted += 1
            except TableFull:
                pass
        assert inserted >= 0.99 * len(keys)
        t.check_invariants()

    def test_half_full_takes_every_insert(self):
        t = CuckooTable.for_capacity(10_000)
        for i, k in enumerate(make_keys(5_000, seed=2)):
            t.insert(k, i % 64)
        assert len(t) == 5_000

    def test_moves_happen_under_load(self):
        t = CuckooTable.for_capacity(2000, target_load=0.9)
        total_moves = 0
        for i, k in enumerate(make_keys(1800, seed=2)):
            try:
                total_moves += t.insert(k, 0).moves
            except TableFull:
                pass
        assert total_moves > 0  # BFS had to shuffle entries

    def test_all_resident_keys_lookupable(self):
        t = CuckooTable.for_capacity(1500, target_load=0.85)
        keys = make_keys(1200, seed=3)
        values = {}
        for i, k in enumerate(keys):
            try:
                t.insert(k, i % 64)
                values[k] = i % 64
            except TableFull:
                pass
        for k, v in values.items():
            r = t.lookup(k)
            assert r.hit and r.value == v and not r.false_positive


class TestDigestCollisions:
    def test_small_digest_produces_false_positives(self):
        # 4-bit digests collide constantly; unseen keys must false-hit.
        t = CuckooTable(buckets_per_stage=8, ways=4, stages=2, digest_bits=4)
        for i, k in enumerate(make_keys(40, seed=4)):
            try:
                t.insert(k, i % 16)
            except TableFull:
                pass
        fps = 0
        for k in make_keys(500, seed=5):
            if k not in t:
                r = t.lookup(k)
                if r.hit:
                    assert r.false_positive
                    fps += 1
        assert fps > 0
        assert t.false_positive_lookups == fps

    def test_collision_relocation_keeps_residents_reachable(self):
        t = CuckooTable(buckets_per_stage=8, ways=4, stages=4, digest_bits=6)
        for i, k in enumerate(make_keys(120, seed=6)):
            try:
                t.insert(k, i % 16)
            except TableFull:
                pass
        t.check_invariants()  # includes resident-shadowing check

    def test_relocate_moves_to_other_stage(self, table):
        loc_before = table.insert(b"key-1", 1).location
        assert table.relocate(b"key-1")
        (loc_after,) = (Location(*e[:3]) for e in table.entries())
        assert loc_after.stage != loc_before.stage
        assert table.lookup(b"key-1").hit

    def test_relocate_missing_raises(self, table):
        with pytest.raises(KeyError):
            table.relocate(b"nope")


class TestInvariantsProperty:
    @given(st.lists(st.binary(min_size=8, max_size=16), unique=True, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_insert_delete_roundtrip(self, keys):
        t = CuckooTable(buckets_per_stage=32, ways=4, stages=3, digest_bits=16)
        inserted = []
        for i, k in enumerate(keys):
            try:
                t.insert(k, i % 64)
                inserted.append(k)
            except TableFull:
                pass
        # Delete every other key, the rest must stay reachable.
        for k in inserted[::2]:
            t.delete(k)
        for idx, k in enumerate(inserted):
            if idx % 2 == 0:
                assert k not in t
            else:
                assert t.lookup(k).hit
        t.check_invariants()

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_stage_occupancy_sums_to_len(self, n):
        t = CuckooTable.for_capacity(600, target_load=0.9)
        for i, k in enumerate(make_keys(n, seed=n)):
            try:
                t.insert(k, 0)
            except (TableFull, DuplicateKey):
                pass
        assert sum(t.stage_occupancy()) == len(t)


class TestProfileCacheLru:
    def test_bounded_with_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cuckoo, "PROFILE_CACHE_SIZE", 8)
        t = CuckooTable(buckets_per_stage=64, ways=4, stages=4, digest_bits=16)
        keys = make_keys(20, seed=7)
        for key in keys:
            t.lookup(key)  # misses populate the side cache
        assert len(t._profile_cache) <= 8
        assert t.profile_cache_evictions == 20 - 8

    def test_lru_keeps_recently_used(self, monkeypatch):
        monkeypatch.setattr(cuckoo, "PROFILE_CACHE_SIZE", 4)
        t = CuckooTable(buckets_per_stage=64, ways=4, stages=4, digest_bits=16)
        keys = make_keys(4, seed=3)
        for key in keys:
            t.lookup(key)
        t.lookup(keys[0])  # refresh: keys[0] becomes most-recently used
        t.lookup(b"evictor-key")  # evicts the LRU entry, which is keys[1]
        assert keys[0] in t._profile_cache
        assert keys[1] not in t._profile_cache

    def test_prime_survives_evicting_its_own_cached_key(self, monkeypatch):
        """A key cached when the batch is scanned can be evicted by the same
        batch's admissions before its turn comes (ephemeral-port reuse just
        under one cache size of arrivals later); priming then re-derives it
        with the scalar path's LRU discipline instead of raising."""
        monkeypatch.setattr(cuckoo, "PROFILE_CACHE_SIZE", 4)
        primed = CuckooTable(buckets_per_stage=64)
        scalar = CuckooTable(buckets_per_stage=64)
        keys = make_keys(4, seed=11)
        primed.prime_profiles(keys, [None] * 4)
        primed.prime_profiles([b"new-arrival", keys[0]], [None, None])
        for key in keys + [b"new-arrival", keys[0]]:
            scalar.lookup(key)
        assert list(primed._profile_cache.items()) == list(
            scalar._profile_cache.items()
        )
        assert list(primed._profile_cache) == keys[2:] + [b"new-arrival", keys[0]]
        assert primed.profile_cache_evictions == scalar.profile_cache_evictions == 2


    def test_prime_admits_and_evicts_like_the_scalar_path(self, monkeypatch):
        """``prime_profiles`` admits misses inline and ``_profile`` admits
        them on a cold miss: both follow one LRU rule, so a batch larger
        than the cache, repeats included, leaves the cache and its
        eviction count exactly as per-key lookups do."""
        monkeypatch.setattr(cuckoo, "PROFILE_CACHE_SIZE", 8)
        primed = CuckooTable(buckets_per_stage=64)
        scalar = CuckooTable(buckets_per_stage=64)
        keys = make_keys(20, seed=5)
        batch = keys[:12] + keys[2:6] + keys[12:] + keys[:3]
        primed.prime_profiles(batch, [None] * len(batch))
        for key in batch:
            scalar.lookup(key)
        assert list(primed._profile_cache.items()) == list(
            scalar._profile_cache.items()
        )
        assert primed.profile_cache_evictions == scalar.profile_cache_evictions > 8


class TestKeyHashEquivalence:
    def test_lookup_with_cached_base_matches_bytes_path(self, table):
        from repro.asicsim.hashing import base_hash

        keys = make_keys(32, seed=5)
        for i, key in enumerate(keys):
            table.insert(key, i % 64, base_hash(key))
        for i, key in enumerate(keys):
            with_hash = table.lookup(key, base_hash(key))
            plain = table.lookup(key)
            assert with_hash.hit and plain.hit
            assert with_hash.value == plain.value == i % 64
            assert with_hash.location == plain.location

    def test_lookup_with_key_hash_performs_no_byte_pass(self, table):
        from repro.asicsim import hashing

        key = b"pre-hashed-key"
        base = hashing.base_hash(key)
        table.insert(key, 9, base)
        before = hashing.BASE_HASH_CALLS
        for _ in range(5):
            assert table.lookup(key, base).hit
        assert hashing.BASE_HASH_CALLS == before
