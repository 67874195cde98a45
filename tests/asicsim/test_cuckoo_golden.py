"""Placement goldens: three deterministic churns whose every placement,
move, relocation, digest false positive and ``TableFull`` is pinned.

Each churn drives one table through seeded inserts, deletes, relocations,
updates, outsider lookups and batch profile priming, then hashes the
``entries()`` stream (every resident's stage, bucket, way, key, digest and
value, in physical order) and reads the table's counters.  A change to the
shadow state's layout must leave all of them equal: the same BFS frontier
order, the same ways chosen, the same twins relocated.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.asicsim import cuckoo
from repro.asicsim.cuckoo import CuckooTable, TableFull
from repro.asicsim.hashing import base_hash
from repro.obs.metrics import MetricRegistry

COUNTERS = (
    "cuckoo_moves_total",
    "collision_relocations_total",
    "lookup_false_positives_total",
    "insert_failures_total",
)


def churn(make_table, seed: int, target_load: float, steps: int):
    """Grow a table to ``target_load`` under 30 % deletes and relocations
    (then hold it there), with one outsider lookup per step and a primed
    batch of upcoming keys every 64 steps.  Returns the sha256 of the
    ``entries()`` stream and the pinned counters."""
    registry = MetricRegistry()
    table: CuckooTable = make_table(registry.scope("t"))
    rng = random.Random(seed)
    target = int(target_load * table.capacity)
    resident: list = []
    fresh = 0
    for step in range(steps):
        if step % 64 == 0:
            # A window's keys are profiled in one pass, half of them with
            # their base hash supplied, as the batched arrival path does.
            upcoming = [b"conn-%07d" % i for i in range(fresh, fresh + 48)]
            table.prime_profiles(
                upcoming,
                [base_hash(k) if i % 2 else None for i, k in enumerate(upcoming)],
            )
        op = rng.random()
        if resident and op < 0.15:
            table.delete(resident.pop(rng.randrange(len(resident))))
        elif resident and op < 0.30:
            table.relocate(resident[rng.randrange(len(resident))])
        elif resident and op < 0.35:
            table.update(resident[rng.randrange(len(resident))], rng.randrange(64))
        elif len(resident) < target:
            key = b"conn-%07d" % fresh
            fresh += 1
            try:
                table.insert(key, rng.randrange(64), base_hash(key) if fresh % 3 else None)
            except TableFull:
                pass
            else:
                resident.append(key)
        table.lookup(b"outsider-%07d" % step)
    table.check_invariants()
    digest = hashlib.sha256()
    for entry in table.entries():
        digest.update(repr(entry).encode())
    snapshot = registry.snapshot()
    counts = {name: int(snapshot[f"t.{name}"]) for name in COUNTERS}
    return digest.hexdigest(), counts, len(table)


CASES = {
    # full_table's geometry: 24 K connections at 16-bit digests, grown past
    # the fast-fail load so the BFS packs the last 2 %.
    "for_capacity_24k": (
        lambda m: CuckooTable.for_capacity(24_000, digest_bits=16, metrics=m),
        42,
        0.98,
        60_000,
    ),
    # Two ways, 2-bit digests over 4 buckets: residents share candidate
    # triples all the time, twins relocate and the BFS moves them.
    "narrow_2way_2bit": (
        lambda m: CuckooTable(
            buckets_per_stage=4, ways=2, stages=4, digest_bits=2, metrics=m
        ),
        7,
        0.95,
        6_000,
    ),
    # §7's graded per-stage digests, wide to narrow; the 64-bit stage
    # makes a packed triple overflow uint64.
    "graded_digests": (
        lambda m: CuckooTable(buckets_per_stage=96, digest_bits=[64, 12, 6, 3], metrics=m),
        11,
        0.97,
        8_000,
    ),
}

#: case -> (sha256 of the entries() stream, counters, residents at the end).
GOLDEN = {
    "for_capacity_24k": (
        "891b2eeb24b2aecdf17c1b922384392cefcd00e23cf09e7b3e8eec486ee4d999",
        {
            "cuckoo_moves_total": 2753,
            "collision_relocations_total": 0,
            "lookup_false_positives_total": 6,
            "insert_failures_total": 1,
        },
        26_138,
    ),
    "narrow_2way_2bit": (
        "f0cc69d0fd6f4a666a6f575cd4bfd370ff983fa679eb6a2fafa64c9008ede0e5",
        {
            "cuckoo_moves_total": 323,
            "collision_relocations_total": 972,
            "lookup_false_positives_total": 5316,
            "insert_failures_total": 2382,
        },
        25,
    ),
    "graded_digests": (
        "cfc10a12a4b7ecff6f3e0d22885e8da7009a2497cd3114b330de3c227c96e042",
        {
            "cuckoo_moves_total": 577,
            "collision_relocations_total": 143,
            "lookup_false_positives_total": 2845,
            "insert_failures_total": 0,
        },
        1_489,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_placements_match_golden(case, monkeypatch):
    # Every table searches until it is full: the first case grows past
    # the fast-fail load.
    monkeypatch.setattr(cuckoo, "FAST_FAIL_LOAD", 1.0)
    make_table, seed, load, steps = CASES[case]
    assert churn(make_table, seed, load, steps) == GOLDEN[case]
