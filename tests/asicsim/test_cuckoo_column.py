"""The columnar shadow state: reference-model churn, the capacity-free
audit's negative cases, and the guards that keep table cost following
residents."""

from __future__ import annotations

import gc
import random
import tracemalloc
from array import array
from collections import Counter
from unittest import mock

import pytest

from repro.asicsim import cuckoo
from repro.asicsim.cuckoo import ROW_BLOCK, CuckooTable, Location, TableFull

STAGES, BUCKETS, WAYS = 4, 16, 4


def small_table() -> CuckooTable:
    # 8-bit digests on 256 slots: digest twins, relocations and BFS moves
    # all happen within a few hundred operations.
    with mock.patch.object(cuckoo, "FAST_FAIL_LOAD", 1.0):
        return CuckooTable(
            buckets_per_stage=BUCKETS, ways=WAYS, stages=STAGES, digest_bits=8
        )


def word_rows(table: CuckooTable, word: int):
    """``(way, row)`` of each valid way of a bucket word, by its documented
    layout: ``ways`` valid bits, then one row field per way."""
    field = (table.capacity + ROW_BLOCK).bit_length()
    return [
        (way, word >> table.ways + way * field & (1 << field) - 1)
        for way in range(table.ways)
        if word >> way & 1
    ]


def item(table: CuckooTable, row: int, stage: int) -> int:
    """Where ``row``'s packed triple of ``stage`` sits in ``_cands``."""
    return row * table.stages + stage


def cell_digest(table: CuckooTable, at: int):
    """The cell and the digest of the packed triple at item ``at``."""
    cand = table._cands[at]
    return cand & table._cell_mask, cand >> table._cand_shift


def home(table: CuckooTable, row: int) -> int:
    """A resident's stage: its slot's."""
    return table._slots[row] // (table.buckets_per_stage * table.ways)


def physical_scan(table: CuckooTable):
    """The bucket words decoded in cell order; an entry's digest is its
    row's digest of its home stage."""
    rows = []
    for cell, word in sorted(table._buckets.items()):
        stage, bucket = divmod(cell, table.buckets_per_stage)
        assert 0 <= stage < table.stages
        for way, row in word_rows(table, word):
            _cell, digest = cell_digest(table, item(table, row, stage))
            rows.append((stage, bucket, way, table._keys[row], digest, table._values[row]))
    return rows


def assert_matches_reference(table: CuckooTable, reference: dict) -> None:
    assert len(table) == len(reference)
    for key, value in reference.items():
        assert table.get_exact(key) == value
    entries = list(table.entries())
    assert entries == physical_scan(table)
    assert {(e[3], e[5]) for e in entries} == set(reference.items())
    for stage, bucket, way, key, _digest, _value in entries:
        assert table.key_at(Location(stage, bucket, way)) == key
    per_stage = Counter(e[0] for e in entries)
    assert table.stage_occupancy() == [per_stage[s] for s in range(STAGES)]
    table.check_invariants()


def narrow_table() -> CuckooTable:
    # 2-bit digests over 4 buckets: 16 candidate triples per stage, so
    # residents share triples constantly and the key -> set promotion, the
    # demotion back and twin relocation run on every pass (16-bit digests
    # almost never get there).  Two ways per bucket leave room for a key
    # of another digest, so the BFS moves entries under shared triples too.
    with mock.patch.object(cuckoo, "FAST_FAIL_LOAD", 1.0):
        return CuckooTable(buckets_per_stage=4, ways=2, stages=STAGES, digest_bits=2)


def registrations(table: CuckooTable) -> Counter:
    """Packed triple -> residents registered under it: each resident's home
    triple (``_match``) and its triples of the stages below its home
    (``_below``, a digest multiset per cell)."""
    shift = table._cand_shift
    counts = Counter(table._match.keys())
    for cell, digests in table._below.items():
        counts.update(digest << shift | cell for digest in digests)
    return counts


def shared_triples(table: CuckooTable) -> set:
    return {c for c, n in registrations(table).items() if n > 1}


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
        registered = registrations(table)
        demoted += sum(1 for c in shared_before - shared_after if c in registered)
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
    """Each corruption of the rows, the bucket words or the match index
    raises."""

    @pytest.fixture
    def table(self) -> CuckooTable:
        table = small_table()
        for i in range(60):
            table.insert(b"conn-%03d" % i, i % 64)
        table.check_invariants()
        return table

    @staticmethod
    def resident(table, below_home=False):
        """A resident's ``(row, home)``, one living above stage 0 if asked."""
        return next(
            (row, home(table, row))
            for row in table._row_of.values()
            if home(table, row) > 0 or not below_home
        )

    def test_orphan_slot_behind_where(self, table):
        donor, _home = self.resident(table)
        empty = next(c for c in range(table.stages * BUCKETS) if c not in table._buckets)
        table._buckets[empty] = 1 | donor << table.ways  # way 0 holds the donor
        with pytest.raises(AssertionError, match="slot count"):
            table.check_invariants()

    def test_wrong_stored_digest(self, table):
        # The stored home triple is the one the entry is matched under:
        # flip one digest bit and the match index no longer names it.
        row, stage = self.resident(table)
        table._cands[item(table, row, stage)] ^= 1 << table._cand_shift
        with pytest.raises(AssertionError, match="not matched under its own triple"):
            table.check_invariants()

    def test_registration_above_home(self, table):
        # Readers never look at a registration at or above the home stage,
        # so one there is dead weight the audit must refuse.
        row, stage = self.resident(table)
        cell, digest = cell_digest(table, item(table, row, stage))
        table._below.setdefault(cell, array(table._digest_code)).append(digest)
        with pytest.raises(AssertionError, match="registers digests"):
            table.check_invariants()

    def test_where_entry_pointing_at_empty_slot(self, table):
        row, _home = self.resident(table)
        cell, way = divmod(table._slots[row], table.ways)
        table._buckets[cell] &= ~(1 << way)
        with pytest.raises(AssertionError, match="out of sync"):
            table.check_invariants()

    def test_where_entry_pointing_at_another_keys_slot(self, table):
        first, second = list(table.keys())[:2]
        table._row_of[first] = table._row_of[second]
        with pytest.raises(AssertionError, match="out of sync"):
            table.check_invariants()

    def test_drifted_stage_counter(self, table):
        table._stage_counts[0] += 1
        with pytest.raises(AssertionError, match="stage counters"):
            table.check_invariants()

    def test_row_left_in_a_free_way(self, table):
        cell, word = next(
            (c, w) for c, w in table._buckets.items() if w & table._full != table._full
        )
        way = next(w for w in range(table.ways) if not word >> w & 1)
        table._buckets[cell] = word | 1 << table.ways + way * table._row_bits
        with pytest.raises(AssertionError, match="keeps a row in a free way"):
            table.check_invariants()

    def test_stale_match_entry(self, table):
        row, _home = self.resident(table)
        table._match[1 << 60] = row
        with pytest.raises(AssertionError, match="matched triples"):
            table.check_invariants()

    def test_free_row_still_resident(self, table):
        row, _home = self.resident(table)
        table._free.append(row)
        with pytest.raises(AssertionError, match="free list"):
            table.check_invariants()

    def test_shadowed_resident(self, table):
        # Structurally consistent, but a stage-0 resident now holds the
        # stage-0 triple of a resident living above it: the audit's lookup
        # of the upper one hits the lower one.
        upper, _home = self.resident(table, below_home=True)
        cands = table._cands
        cell0, _digest = cell_digest(table, item(table, upper, 0))
        lower = next(r for _way, r in word_rows(table, table._buckets[cell0]))
        # Both stage-0 triples name cell0: give the lower the upper's digest.
        del table._match[cands[item(table, lower, 0)]]
        cands[item(table, lower, 0)] = cands[item(table, upper, 0)]
        table._match[cands[item(table, lower, 0)]] = lower
        with pytest.raises(AssertionError, match="shadowed"):
            table.check_invariants()


class TestCandidateIndexAudit:
    """The below-home index is audited too: per cell, exactly the digests
    of the residents whose candidate bucket of a stage below their home
    it is."""

    @pytest.fixture
    def table(self) -> CuckooTable:
        table = narrow_table()
        for i in range(20):
            try:
                table.insert(b"conn-%03d" % i, i % 64)
            except TableFull:
                pass
        assert shared_triples(table)  # residents really share triples
        table.check_invariants()
        return table

    def test_missing_registration(self, table):
        del table._below[next(iter(table._below))]
        with pytest.raises(AssertionError, match="registrations missing"):
            table.check_invariants()

    def test_missing_registration_in_a_shared_triple(self, table):
        cell, digests = next(
            (c, d) for c, d in table._below.items() if len(d) > len(set(d))
        )
        digests.remove(next(d for d in digests if digests.count(d) > 1))
        with pytest.raises(AssertionError, match="registers digests"):
            table.check_invariants()

    def test_stale_registration_of_a_deleted_key(self, table):
        row = next(r for r in table._row_of.values() if home(table, r) > 0)
        cell, digest = cell_digest(table, item(table, row, 0))
        table.delete(table._keys[row])
        table._below.setdefault(cell, array(table._digest_code)).append(digest)
        with pytest.raises(AssertionError, match="registers digests"):
            table.check_invariants()

    def test_emptied_bucket_left_in_the_map(self, table):
        empty = next(c for c in range(table.stages * 4) if c not in table._buckets)
        table._buckets[empty] = 0
        with pytest.raises(AssertionError, match="kept the emptied bucket"):
            table.check_invariants()

    def test_empty_registration_left_behind(self, table):
        cell = next(c for c in range(table.stages * 4) if c not in table._below)
        table._below[cell] = array(table._digest_code)
        with pytest.raises(AssertionError, match="kept the empty cell"):
            table.check_invariants()

    def test_registration_under_a_foreign_triple(self, table):
        row = next(r for r in table._row_of.values() if home(table, r) > 0)
        own, digest = cell_digest(table, item(table, row, 0))
        foreign = next(c for c in table._below if c != own and c < 4)
        table._below[foreign].append(digest)
        with pytest.raises(AssertionError, match="registers digests"):
            table.check_invariants()


def bytes_per_resident(build, count: int):
    """Host bytes (by ``tracemalloc``) per entry of a table ``build()``
    makes and ``count`` inserts fill, construction included (so an array
    sized by capacity would be counted); returns them and the table."""
    keys = [b"conn-%08d" % i for i in range(count)]
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    table = build()
    for i, key in enumerate(keys):
        table.insert(key, i % 64)
    per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(table)
    tracemalloc.stop()
    assert len(table) == count
    return per_entry, table


def test_distinct_triple_inserts_allocate_no_set_and_stay_small():
    """One row per resident: a key with triples of its own shares no
    registration, and the host bytes per resident entry stay bounded (a
    Slot object per entry measured 444 here, the four-sets-per-entry
    representation 1,910, registering every resident in all four stages
    554)."""
    per_entry, table = bytes_per_resident(
        lambda: CuckooTable.for_capacity(24_000, digest_bits=64), 20_000
    )
    assert not shared_triples(table)  # 64-bit digests: no triple is shared
    assert per_entry <= 300, per_entry  # measured: 252


def test_low_load_residents_stay_small():
    """5 K residents of a million-entry table sit mostly in stage 0, so
    they have few registrations below their home and a bucket word each
    (a Slot per entry measured 409 bytes per resident, registering every
    resident in all four stages 541)."""
    per_entry, table = bytes_per_resident(
        lambda: CuckooTable.for_capacity(1_000_000, digest_bits=64), 5_000
    )
    assert not shared_triples(table)
    assert per_entry <= 300, per_entry  # measured: 278


def test_full_table_residents_stay_small():
    """The full_table benchmark's end state: ConnTable's geometry for
    24,000 connections (25,600 slots) at 16-bit digests, filled to the
    0.98 fast-fail load, where most residents live above stage 0 and
    register below their home (a Slot per entry measured 513)."""
    per_entry, table = bytes_per_resident(
        lambda: CuckooTable.for_capacity(24_000, target_load=0.9375, digest_bits=16),
        25_088,
    )
    assert table.load_factor == 0.98
    assert per_entry <= 300, per_entry  # measured: 257


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
    column = table._buckets = _WriteCountingColumn(table._buckets)
    before = (dict(column), dict(table._match), {c: d.tolist() for c, d in table._below.items()})
    for row in list(table._row_of.values()):
        for stage in range(STAGES):
            table._placement_legal(row, stage)
    assert column.writes == 0
    after = (dict(column), dict(table._match), {c: d.tolist() for c, d in table._below.items()})
    assert after == before
    assert table.relocate(next(iter(table.keys())))  # the counter does count
    assert column.writes == 2  # the vacated word is rewritten, the new one too


def test_insert_then_delete_churn_empties_the_map():
    """The maps hold residents only: whatever the churn left behind
    (moves, relocations, BFS paths), deleting every resident empties
    them."""
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
    assert table._buckets and table._below and table._m_moves.value > 0
    for key in resident:
        table.delete(key)
    assert table._buckets == table._match == table._below == {} and len(table) == 0
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
        with mock.patch.object(cuckoo, "FAST_FAIL_LOAD", 1.0):
            table = CuckooTable(buckets_per_stage=4, ways=2, stages=4, digest_bits=2)
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
