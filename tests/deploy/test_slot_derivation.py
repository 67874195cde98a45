"""A flow's ECMP slot is derived once, and routes exactly as ``lookup``.

Every VIP's resilient hash group is built with the same seed and slot
count, so the fleet derives a whole window's slots (or a sweep's) in one
pass and reads the member at routing time.  These tests pin that every
routing decision made that way equals ``ResilientHashTable.lookup`` at
the same instant, that the window store stays one window wide, and that a
sweep's targets find their flows' profiles already primed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.asicsim.hashing import base_hash, mix64
from repro.baselines.ecmp import ResilientHashTable
from repro.deploy.fleet import FleetSilkRoad
from repro.faults.fleet import run_fleet
from repro.netsim import DirectIP
from repro.netsim.batchsim import BatchedFlowSimulator

from .test_fleet import build

BATCH = 256


class TestResilientHashTableSlots:
    def test_slot_column_and_member_match_lookup(self):
        members = [DirectIP(0x0A000000 + i, 80) for i in range(5)]
        table = ResilientHashTable(members, num_slots=64)
        keys = [b"flow-%d" % i for i in range(300)]
        hashes = [base_hash(key) for key in keys]
        for _change in range(3):
            column = table.slots_of(hashes)
            assert column == [table.slot_of(h) for h in hashes]
            assert all(type(slot) is int for slot in column)
            for key, h, slot in zip(keys, hashes, column):
                assert table.member_at(slot) == table.lookup(key, h)
                assert table.member_at(slot) == table.lookup(key)
            table.remove(members.pop())
        table.add(DirectIP(0x0B000000, 80))
        assert [table.member_at(s) for s in table.slots_of(hashes)] == [
            table.lookup(key) for key in keys
        ]
        assert table.slots_of([]) == []

    def test_slot_depends_on_seed_and_slot_count_only(self):
        a = ResilientHashTable([DirectIP(1, 1)], num_slots=128)
        b = ResilientHashTable([DirectIP(2, 2), DirectIP(3, 3)], num_slots=128)
        hashes = [mix64(i, 5) for i in range(100)]
        assert a.slots_of(hashes) == b.slots_of(hashes)


@pytest.fixture
def routing_spy(monkeypatch):
    """Check every fleet routing decision against ``lookup`` as it is made."""
    seen = Counter()
    arrival = FleetSilkRoad.on_connection_arrival
    hand_off = FleetSilkRoad._hand_off

    def checked_arrival(self, conn):
        window_conns, window_slots = self._window
        assert len(window_conns) == len(window_slots) <= BATCH
        seen["windowed"] += bool(window_conns) and window_conns[-1] is conn
        arrival(self, conn)
        table = self._tables.get(conn.vip)
        if table is not None and conn.vip not in self._shed:
            assert self._owner[conn.key] == table.lookup(conn.key, conn.key_hash).index
            seen["arrivals"] += 1

    def checked_hand_off(self, conn, target, cause):
        table = self._tables.get(conn.vip)
        if table is None:
            assert target is None
        else:
            assert target == table.lookup(conn.key, conn.key_hash).index
        seen["hand_offs"] += 1
        hand_off(self, conn, target, cause)

    monkeypatch.setattr(FleetSilkRoad, "on_connection_arrival", checked_arrival)
    monkeypatch.setattr(FleetSilkRoad, "_hand_off", checked_hand_off)
    return seen


def test_fleet_mixed_routes_every_flow_as_lookup(routing_spy):
    # fleet_mixed's shape at its tiny size, with faults dense enough that
    # detections re-home flows and recovered switches rejoin.
    result = run_fleet(
        seed=16,
        fault_seed=2016,
        pattern="mixed",
        num_switches=8,
        scale=0.04,
        horizon_s=20.0,
        faults_per_min=20.0,
    )
    assert result.audit.ok, str(result.audit)
    fleet = result.fleet
    assert fleet.detections > 0 and fleet.rejoins > 0
    assert routing_spy["hand_offs"] > 0
    assert routing_spy["arrivals"] > 0
    # Arrivals route from their window's slot; the store empties as they do.
    assert routing_spy["windowed"] == len(result.connections)
    assert fleet._window == ([], [])


def test_reassignment_redirect_routes_as_lookup(routing_spy):
    _cluster, fleet, conns = build(replication=2)
    sim = BatchedFlowSimulator(fleet, batch_size=BATCH)
    sim.queue.schedule(20.0, lambda: fleet.request_reassign(0, 2), 1)
    sim.run(conns, horizon_s=60.0)
    assert fleet.reassignments_completed == 1
    assert routing_spy["hand_offs"] > 0


def test_rejoin_leaves_no_scalar_profile_derivation():
    """The rejoin sweep primes its target with the flows moving to it, so
    none of their arrivals there derives a profile on the scalar path."""
    _cluster, fleet, conns = build(num_switches=3)
    sim = BatchedFlowSimulator(fleet, batch_size=BATCH)
    rejoin = fleet.rejoin
    moved, misses = [], []

    def spying_rejoin(index):
        table = fleet._slots[index].switch.conn_table
        profile = table._profile

        def checked_profile(key, key_hash=None):
            if key not in table._profile_cache:
                misses.append(key)
            return profile(key, key_hash)

        table._profile = checked_profile
        before = fleet.handoffs
        try:
            rejoin(index)
        finally:
            del table._profile
        moved.append(fleet.handoffs - before)

    fleet.rejoin = spying_rejoin
    sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1, restart_after_s=2.0), 1)
    sim.run(conns, horizon_s=60.0)
    assert fleet.rejoins == 1
    assert sum(moved) > 0
    assert misses == []
