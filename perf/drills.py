"""Layer drills: the unit cost of eight public layer operations, alone.

The traced run attributes host time outside-in, so a layer a driver
inlines (the batched ConnTable probe) never shows up under its own name.
The drills close that gap from the other side: each calls one public
operation in a tight loop on keys taken from the ``pop_steady`` inputs
and reports ``drill.<name>.ns_per_op`` — best of :data:`SAMPLES` samples
of at least :data:`MIN_SAMPLE_S` seconds each — so a layer's unit cost is
visible whichever driver currently inlines it.  Loop overhead (a ``for``
over a list, ~20 ns) is included; compare drills with themselves across
commits, not with each other.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import SilkRoadConfig
from repro.asicsim.cuckoo import TableFull
from repro.asicsim.hashing import base_hash_many
from repro.asicsim.learning_filter import LearningFilter
from repro.core.conn_table import ConnTable
from repro.core.dip_pool_table import DipPoolTable
from repro.core.transit_table import TransitTable
from repro.netsim.events import EventQueue

SAMPLES = 5
MIN_SAMPLE_S = 0.2

#: A pass runs the operation over a block of keys and returns
#: ``(operations, seconds)`` with only the operation inside the clock.
Pass = Callable[[], Tuple[int, float]]


def _sample(one_pass: Pass, min_s: float) -> float:
    """ns/op over passes totalling at least ``min_s`` seconds."""
    ops = 0
    seconds = 0.0
    while seconds < min_s:
        n, dt = one_pass()
        ops += n
        seconds += dt
    return seconds / ops * 1e9


def _best(one_pass: Pass, samples: int, min_s: float) -> float:
    return min(_sample(one_pass, min_s) for _ in range(samples))


def _filled_table(capacity: int, load: float, keys, hashes) -> Tuple[ConnTable, int]:
    """A ConnTable filled to ``load`` from the head of ``keys``; returns
    it and the number of keys consumed."""
    table = ConnTable(SilkRoadConfig(conn_table_capacity=capacity))
    used = 0
    while table.load_factor < load and used < len(keys):
        try:
            table.insert(keys[used], 1, hashes[used])
        except TableFull:
            pass  # this key's buckets are packed; the next one may fit
        used += 1
    return table, used


def run_drills(
    keys: Sequence[bytes],
    vip,
    dips,
    samples: int = SAMPLES,
    min_sample_s: float = MIN_SAMPLE_S,
) -> Dict[str, float]:
    """All eight drills on ``keys`` (distinct connection keys) and one
    service's ``vip``/``dips``; returns ``{drill name: ns per op}``."""
    keys = list(keys)
    hashes: List[int] = base_hash_many(keys)
    clock = time.perf_counter
    block = keys[: max(1, len(keys) // 8)]
    out: Dict[str, float] = {}

    def hash_pass():
        t = clock()
        base_hash_many(keys)
        return len(keys), clock() - t

    out["base_hash_many"] = _best(hash_pass, samples, min_sample_s)

    # Lookup misses against a 2 %-full table: resident keys come from the
    # head of the list, probes from the rest.
    sparse, used = _filled_table(len(keys) * 8, 0.02, keys, hashes)
    probes = list(zip(keys[used:], hashes[used:]))

    def lookup_pass():
        lookup = sparse.lookup
        t = clock()
        for key, key_hash in probes:
            lookup(key, key_hash)
        return len(probes), clock() - t

    out["conn_table_lookup_miss"] = _best(lookup_pass, samples, min_sample_s)

    def insert_pass_on(table: ConnTable, fresh):
        """Insert a block (timed), then delete what went in (untimed) so
        the load is the same at the start of every pass."""

        def one_pass():
            insert = table.insert
            placed = []
            t = clock()
            for key, key_hash in fresh:
                try:
                    insert(key, 1, key_hash)
                except TableFull:
                    continue
                placed.append(key)
            dt = clock() - t
            for key in placed:
                table.delete(key)
            return len(fresh), dt

        return one_pass

    # Both insert drills cycle the same 64 keys, so per-key profile
    # derivation is cached alike and only the table's occupancy differs.
    out["conn_table_insert_2pct"] = _best(
        insert_pass_on(sparse, probes[:64]), samples, min_sample_s
    )
    # A table small enough that the available keys fill it to 95 %.
    dense, used = _filled_table(len(keys) // 2, 0.95, keys, hashes)
    fresh = list(zip(keys[used : used + 64], hashes[used : used + 64]))
    out["conn_table_insert_95pct"] = _best(
        insert_pass_on(dense, fresh), samples, min_sample_s
    )

    learning = LearningFilter(capacity=2048, timeout=1e-3)

    def offer_pass():
        offer = learning.offer
        t = clock()
        for key, key_hash in zip(keys, hashes):
            offer(key, 0.0, (), key_hash)  # flushes itself at capacity
        dt = clock() - t
        learning.flush(0.0)
        return len(keys), dt

    out["learning_filter_offer"] = _best(offer_pass, samples, min_sample_s)

    transit = TransitTable(size_bytes=1024)
    window = list(zip(keys[:256], hashes[:256]))  # ~ one update's marks

    def transit_pass():
        update_id = transit.update_started()
        mark, check = transit.mark, transit.check
        t = clock()
        for key, key_hash in window:
            mark(key, key_hash, update_id)
            check(key, key_hash)
        dt = clock() - t
        transit.update_finished(update_id)
        return len(window), dt

    out["transit_mark_check"] = _best(transit_pass, samples, min_sample_s)

    noop = lambda: None  # noqa: E731
    times = [i * 1e-6 for i in range(len(block))]

    def event_pass():
        queue = EventQueue()
        schedule, step = queue.schedule, queue.step
        t = clock()
        for when in times:
            schedule(when, noop, 1)
        while step():
            pass
        return len(times), clock() - t

    out["event_schedule_step"] = _best(event_pass, samples, min_sample_s)

    pools = DipPoolTable()
    version = pools.add_vip(vip, dips)
    pairs = list(zip(keys, hashes))

    def select_pass():
        select = pools.select
        t = clock()
        for key, key_hash in pairs:
            select(vip, version, key, key_hash)
        return len(pairs), clock() - t

    out["dip_pool_select"] = _best(select_pass, samples, min_sample_s)
    return out
