"""The sparse slot map: reference-model churn, the capacity-free audit's
negative cases, and the guards that keep table cost following residents."""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter

import pytest

from repro.asicsim.cuckoo import CuckooTable, Location, TableFull

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
    """The slot map decoded by the documented index formula, in index order;
    an entry's digest is the high bits of its home stage's packed triple."""
    rows = []
    for index, slot in sorted(table._column.items()):
        assert 0 <= index < table.capacity
        cell, way = divmod(index, table.ways)
        stage, bucket = divmod(cell, table.buckets_per_stage)
        digest = slot.profile[stage] >> table._cand_shift
        rows.append((stage, bucket, way, slot.key, digest, slot.value))
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


def narrow_table() -> CuckooTable:
    # 2-bit digests over 4 buckets: 16 candidate triples per stage, so
    # residents share triples constantly and the key -> set promotion, the
    # demotion back and twin relocation run on every pass (16-bit digests
    # almost never get there).  Two ways per bucket leave room for a key
    # of another digest, so the BFS moves entries under shared triples too.
    return CuckooTable(
        buckets_per_stage=4,
        ways=2,
        stages=STAGES,
        digest_bits=2,
        fast_fail_load=1.0,
    )


def shared_triples(table: CuckooTable) -> set:
    return {c for c, owners in table._candidates.items() if type(owners) is set}


def churn(table: CuckooTable, rng: random.Random, target: int, steps: int = 700):
    """Random insert / delete / update / relocate against a dict reference,
    holding occupancy near ``target``; every step is checked.  Returns
    ``(moved, relocated, promoted, demoted)`` so callers can assert the
    paths they care about really ran."""
    reference: dict = {}
    fresh = iter(range(10**6))
    moved = relocated = promoted = demoted = 0
    for _step in range(steps):
        # Hold occupancy near the target, so every operation runs at the
        # load under test rather than on the way up to it.
        want_insert = len(reference) < target or (
            len(reference) == target and rng.random() < 0.5
        )
        shared_before = shared_triples(table)
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
                pass
        elif reference:
            key = rng.choice(sorted(reference))
            table.delete(key)
            del reference[key]
        shared_after = shared_triples(table)
        promoted += len(shared_after - shared_before)
        demoted += sum(1 for c in shared_before - shared_after if c in table._candidates)
        assert_matches_reference(table, reference)
    return moved, relocated, promoted, demoted


@pytest.mark.parametrize("target_load", [0.02, 0.5, 0.97])
def test_random_churn_matches_dict_reference(target_load):
    rng = random.Random(1300 + int(target_load * 100))
    table = small_table()
    target = max(1, int(target_load * table.capacity))
    moved, relocated, _promoted, _demoted = churn(table, rng, target)
    assert relocated > 0
    if target_load > 0.9:
        assert moved > 0  # the BFS / move path really ran


def test_shared_triple_churn_matches_dict_reference():
    table = narrow_table()
    moved, relocated, promoted, demoted = churn(table, random.Random(1717), target=24)
    # Candidates really went key -> set -> key, and entries were re-homed
    # (by request and as digest twins) while registered under shared triples.
    assert promoted > 20 and demoted > 20, (promoted, demoted)
    assert relocated > 0 and table.collision_relocations > 0
    assert moved > 0  # the BFS moved entries registered under shared triples


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
        donor = next(iter(column.values()))
        column[next(i for i in range(table.capacity) if i not in column)] = donor
        with pytest.raises(AssertionError, match="slot count"):
            table.check_invariants()

    def test_wrong_stored_digest(self, table):
        # An entry's digest is its home triple's high bits: flip one and the
        # entry no longer owns the triple it is registered under.
        slot = next(iter(table._column.values()))
        profile = list(slot.profile)
        profile[slot.stage] ^= 1 << table._cand_shift
        slot.profile = tuple(profile)
        with pytest.raises(AssertionError, match="not a resident with that triple"):
            table.check_invariants()

    def test_registration_above_home(self, table):
        # Readers never look at an owner above its home stage, so such a
        # registration is dead weight the audit must refuse.
        slot = next(s for s in table._column.values() if s.stage < STAGES - 1)
        table._register(slot.key, slot.profile[slot.stage + 1 : slot.stage + 2])
        with pytest.raises(AssertionError, match="above its home stage"):
            table.check_invariants()

    def test_where_entry_pointing_at_empty_slot(self, table):
        column = table._column
        del column[next(iter(column))]
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


class TestCandidateIndexAudit:
    """The candidate index is audited too: one registration per resident
    per stage up to its home, under its own triples, a lone owner stored
    as the key."""

    @pytest.fixture
    def table(self) -> CuckooTable:
        table = narrow_table()
        for i in range(20):
            try:
                table.insert(b"conn-%03d" % i, i % 64)
            except TableFull:
                pass
        assert shared_triples(table)  # the fixture covers both value shapes
        table.check_invariants()
        return table

    @staticmethod
    def lone_registration(table):
        return next(
            (cand, owner)
            for cand, owner in table._candidates.items()
            if type(owner) is not set
        )

    def test_missing_registration(self, table):
        cand, _key = self.lone_registration(table)
        del table._candidates[cand]
        with pytest.raises(AssertionError, match="candidate registrations"):
            table.check_invariants()

    def test_missing_registration_in_a_shared_triple(self, table):
        cand = next(iter(shared_triples(table)))
        table._candidates[cand].pop()
        with pytest.raises(AssertionError, match="candidate"):
            table.check_invariants()

    def test_stale_registration_of_a_deleted_key(self, table):
        cand, key = self.lone_registration(table)
        table.delete(key)
        table._candidates[cand] = key
        with pytest.raises(AssertionError, match="not a resident"):
            table.check_invariants()

    def test_undemoted_one_element_set(self, table):
        cand, key = self.lone_registration(table)
        table._candidates[cand] = {key}
        with pytest.raises(AssertionError, match="kept a set"):
            table.check_invariants()

    def test_empty_set_left_behind(self, table):
        table._candidates[1 << 40] = set()
        with pytest.raises(AssertionError, match="kept a set"):
            table.check_invariants()

    def test_registration_under_a_foreign_triple(self, table):
        cand, key = self.lone_registration(table)
        foreign = next(c for c in table._candidates if c not in table._where[key].profile)
        owners = table._candidates[foreign]
        table._candidates[foreign] = (owners if type(owners) is set else {owners}) | {key}
        with pytest.raises(AssertionError, match="not a resident with that triple"):
            table.check_invariants()


def bytes_per_resident(table: CuckooTable, count: int) -> float:
    """Host bytes (by ``tracemalloc``) per entry of ``count`` inserts."""
    keys = [b"conn-%08d" % i for i in range(count)]
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for i, key in enumerate(keys):
        table.insert(key, i % 64)
    per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(table)
    tracemalloc.stop()
    assert len(table) == count
    assert not shared_triples(table)  # 64-bit digests: no triple is shared
    return per_entry


def test_distinct_triple_inserts_allocate_no_set_and_stay_small():
    """One shadow record per resident: a key with triples of its own costs
    no ``set``, and the host bytes per resident entry stay bounded (the
    four-sets-per-entry representation measured 1,910 here, registering
    every resident in all four stages 554)."""
    table = CuckooTable.for_capacity(24_000, digest_bits=64)
    per_entry = bytes_per_resident(table, 20_000)
    assert per_entry <= 500, per_entry  # measured: 444


def test_low_load_residents_stay_small():
    """5 K residents of a million-entry table sit mostly in stage 0, so
    they are registered once or twice, not in all four stages (measured
    541 bytes per resident that way)."""
    table = CuckooTable.for_capacity(1_000_000, digest_bits=64)
    per_entry = bytes_per_resident(table, 5_000)
    assert per_entry <= 480, per_entry  # measured: 409


class _WriteCountingColumn(dict):
    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self.writes += 1
        super().__delitem__(index)


def test_legality_query_never_writes_the_column():
    table = small_table()
    for i in range(200):
        table.insert(b"conn-%03d" % i, i % 64)
    column = table._column = _WriteCountingColumn(table._column)
    before = dict(column)
    for key in list(table.keys()):
        profile = table._where[key].profile
        for stage in range(STAGES):
            table._placement_legal(key, stage, profile)
    assert column.writes == 0
    assert column.keys() == before.keys()
    assert all(column[i] is slot for i, slot in before.items())
    assert table.relocate(next(iter(table.keys())))  # the counter does count
    assert column.writes == 2  # the vacated index leaves, the new one arrives


def test_insert_then_delete_churn_empties_the_map():
    """The map holds occupied slots only: whatever the churn left behind
    (moves, relocations, BFS paths), deleting every resident empties it."""
    table = small_table()
    rng = random.Random(30)
    resident = []
    for i in range(2_000):
        if resident and (len(resident) > 230 or rng.random() < 0.4):
            table.delete(resident.pop(rng.randrange(len(resident))))
        else:
            key = b"conn-%05d" % i
            try:
                table.insert(key, i % 64)
            except TableFull:
                continue
            resident.append(key)
    assert table._column and table._m_moves.value > 0
    for key in resident:
        table.delete(key)
    assert table._column == {} and len(table) == 0
    assert table.stage_occupancy() == [0] * STAGES
    table.check_invariants()


def test_construction_is_capacity_independent():
    """A million-entry table is a handful of containers, not one list per
    bucket: the gc-tracked object delta is a constant (no timing involved)."""
    gc.collect()
    before = len(gc.get_objects())
    table = CuckooTable.for_capacity(1_000_000)
    delta = len(gc.get_objects()) - before
    assert table.capacity >= 1_000_000
    assert delta < 100, delta


def test_empty_table_bytes_do_not_follow_capacity():
    """An empty million-entry table costs what an empty small one does: no
    per-slot storage (a ``[None] * capacity`` column was 8.9 MB here)."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    table = CuckooTable.for_capacity(1_000_000)
    grown = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert table.capacity >= 1_000_000
    assert grown < 64 * 1024, grown  # measured: 10 KB


def test_key_at_names_the_slot_a_false_positive_hit():
    """At 2-bit digests a table filled as far as legality lets it (about
    0.9 of two-way buckets) answers outsider lookups with some resident's
    slot; ``key_at`` names that resident (the one the physical walk finds
    there) and a free slot as ``None``."""
    table = narrow_table()
    for i in range(200):
        try:
            table.insert(b"conn-%03d" % i, i % 64)
        except TableFull:
            pass
    assert table.load_factor > 0.6
    owner_at = {(s, b, w): key for s, b, w, key, _d, _v in table.entries()}
    false_hits = 0
    for i in range(200):
        result = table.lookup(b"outsider-%03d" % i)
        if result.hit:
            assert result.false_positive
            false_hits += 1
            assert table.key_at(result.location) == owner_at[result.location]
    assert false_hits > 50, false_hits
    for stage in range(STAGES):
        for bucket in range(table.buckets_per_stage):
            for way in range(table.ways):
                loc = Location(stage, bucket, way)
                assert table.key_at(loc) == owner_at.get(loc)


def test_two_way_narrow_digest_churn_never_shadows():
    """Every BFS move is legal when it is applied.  On two ways with 2-bit
    digests the BFS moves entries constantly, and a victim moved earlier in
    a path can land where it shadows the new key or a later victim unless
    each move is checked against the table as it is then."""
    shadowed = []
    for seed in range(60):
        table = CuckooTable(
            buckets_per_stage=4, ways=2, stages=4, digest_bits=2, fast_fail_load=1.0
        )
        rng = random.Random(seed)
        fresh = iter(range(10**6))
        resident: list = []
        try:
            for _op in range(400):
                if resident and rng.random() < 0.4:
                    table.delete(resident.pop(rng.randrange(len(resident))))
                else:
                    key = b"conn-%06d" % next(fresh)
                    try:
                        table.insert(key, rng.randrange(64))
                        resident.append(key)
                    except TableFull:
                        pass
                table.check_invariants()
        except AssertionError as exc:
            shadowed.append((seed, str(exc)))
    assert not shadowed, f"{len(shadowed)} of 60 seeds: {shadowed[:3]}"
