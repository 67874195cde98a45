"""The flat slot column: reference-model churn, the capacity-free audit's
negative cases, and the guards that keep table cost following residents."""

from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from repro.asicsim.cuckoo import CuckooTable, TableFull

STAGES, BUCKETS, WAYS = 4, 16, 4


def small_table() -> CuckooTable:
    # 8-bit digests on 256 slots: digest twins, relocations and BFS moves
    # all happen within a few hundred operations.
    return CuckooTable(
        buckets_per_stage=BUCKETS,
        ways=WAYS,
        stages=STAGES,
        digest_bits=8,
        fast_fail_load=1.0,
    )


def physical_scan(table: CuckooTable):
    """The column decoded by the documented index formula, front to back."""
    rows = []
    for index, slot in enumerate(table._column):
        if slot is not None:
            cell, way = divmod(index, table.ways)
            stage, bucket = divmod(cell, table.buckets_per_stage)
            rows.append((stage, bucket, way, slot.key, slot.digest, slot.value))
    return rows


def assert_matches_reference(table: CuckooTable, reference: dict) -> None:
    assert len(table) == len(reference)
    for key, value in reference.items():
        assert table.get_exact(key) == value
    entries = list(table.entries())
    assert entries == physical_scan(table)
    assert {(e[3], e[5]) for e in entries} == set(reference.items())
    for stage, bucket, way, key, _digest, _value in entries:
        assert table.location_of(key) == (stage, bucket, way)
    per_stage = Counter(e[0] for e in entries)
    assert table.stage_occupancy() == [per_stage[s] for s in range(STAGES)]
    table.check_invariants()


@pytest.mark.parametrize("target_load", [0.02, 0.5, 0.97])
def test_random_churn_matches_dict_reference(target_load):
    rng = random.Random(1300 + int(target_load * 100))
    table = small_table()
    reference: dict = {}
    target = max(1, int(target_load * table.capacity))
    fresh = iter(range(10**6))
    moved = relocated = full = 0
    for _step in range(700):
        # Hold occupancy near the target, so every operation runs at the
        # load under test rather than on the way up to it.
        want_insert = len(reference) < target or (
            len(reference) == target and rng.random() < 0.5
        )
        op = rng.random()
        if reference and op < 0.15:
            key = rng.choice(sorted(reference))
            relocated += table.relocate(key)
        elif reference and op < 0.30:
            key = rng.choice(sorted(reference))
            reference[key] = rng.randrange(64)
            table.update(key, reference[key])
        elif want_insert:
            key = b"conn-%06d" % next(fresh)
            value = rng.randrange(64)
            try:
                moved += table.insert(key, value).moves
                reference[key] = value
            except TableFull:
                full += 1
        elif reference:
            key = rng.choice(sorted(reference))
            table.delete(key)
            del reference[key]
        assert_matches_reference(table, reference)
    assert relocated > 0
    if target_load > 0.9:
        assert moved > 0  # the BFS / move path really ran


class TestAuditLosesNothing:
    """Each corruption the O(capacity) slot walk caught still raises."""

    @pytest.fixture
    def table(self) -> CuckooTable:
        table = small_table()
        for i in range(60):
            table.insert(b"conn-%03d" % i, i % 64)
        table.check_invariants()
        return table

    def test_orphan_slot_behind_where(self, table):
        column = table._column
        donor = next(slot for slot in column if slot is not None)
        column[column.index(None)] = donor
        with pytest.raises(AssertionError, match="slot count"):
            table.check_invariants()

    def test_wrong_stored_digest(self, table):
        slot = next(slot for slot in table._column if slot is not None)
        slot.digest ^= 1
        with pytest.raises(AssertionError, match="digest mismatch"):
            table.check_invariants()

    def test_where_entry_pointing_at_empty_slot(self, table):
        column = table._column
        column[next(i for i, slot in enumerate(column) if slot is not None)] = None
        with pytest.raises(AssertionError, match="out of sync"):
            table.check_invariants()

    def test_where_entry_pointing_at_another_keys_slot(self, table):
        first, second = list(table.keys())[:2]
        table._where[first] = table._where[second]
        with pytest.raises(AssertionError, match="out of sync"):
            table.check_invariants()

    def test_drifted_stage_counter(self, table):
        table._stage_counts[0] += 1
        with pytest.raises(AssertionError, match="stage counters"):
            table.check_invariants()


class _WriteCountingColumn(list):
    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def test_legality_query_never_writes_the_column():
    table = small_table()
    for i in range(200):
        table.insert(b"conn-%03d" % i, i % 64)
    column = table._column = _WriteCountingColumn(table._column)
    before = list(column)
    for key in list(table.keys()):
        profile = table._profiles[key]
        for stage in range(STAGES):
            table._placement_legal(key, stage, profile)
    assert column.writes == 0
    assert all(a is b for a, b in zip(before, column))
    assert table.relocate(next(iter(table.keys())))  # the counter does count
    assert column.writes == 2


def test_construction_is_capacity_independent():
    """A million-entry table is a handful of containers, not one list per
    bucket: the gc-tracked object delta is a constant (no timing involved)."""
    gc.collect()
    before = len(gc.get_objects())
    table = CuckooTable.for_capacity(1_000_000)
    delta = len(gc.get_objects()) - before
    assert table.capacity >= 1_000_000
    assert delta < 100, delta
