"""A dropped slow-path job waits in one set and costs O(arrivals) events.

A job the switch CPU sheds (bounded backlog), loses (crash, lost
notification) or fails to write leaves its connection unmatched in the
data plane.  The switch parks the key in one insertion-ordered waiting
set and re-offers it through the learning filter, oldest first, whenever
the CPU is up and has room — no timer per key, so the cost of an outage
follows arrivals, not its length.  These tests pin that event budget
under the two storms (a full backlog, a crashed CPU), and the two per-key
properties that make the set safe: a re-offered FP-redirect job keeps its
metadata, and a connection that ends while it waits is never re-offered.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.experiments.common import build_workload
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.netsim.events import EventQueue
from repro.netsim.flows import Connection

#: Scheduled events a connection may cost under a storm (arrival-driven
#: polls, one install, one idle expiry and the re-offer of a dropped job).
EVENTS_PER_CONNECTION = 4


class _StormBound(AssertionError):
    pass


def _count_events(monkeypatch, limit):
    """Count ``EventQueue.schedule`` calls; raise once ``limit`` is passed
    so a storm fails in seconds instead of running to completion."""
    count = [0]
    schedule = EventQueue.schedule

    def counting(self, time, action, priority=0):
        count[0] += 1
        if count[0] > limit:
            raise _StormBound(f"more than {limit} events scheduled")
        return schedule(self, time, action, priority)

    monkeypatch.setattr(EventQueue, "schedule", counting)
    return count


@pytest.fixture(scope="module")
def workload():
    return build_workload(10.0, scale=0.5, seed=16, horizon_s=10.0, warmup_s=5.0)


def _assert_audited(switch, conns):
    audit = audit_switch(switch, connections=conns)
    assert audit.ok, str(audit)
    assert audit.unattributed_violations == 0


def test_full_backlog_costs_at_most_four_events_per_connection(monkeypatch, workload):
    config = SilkRoadConfig(insertion_rate_per_s=100.0, cpu_max_backlog=64)
    limit = EVENTS_PER_CONNECTION * len(workload.connections)
    _count_events(monkeypatch, limit)
    _report, conns, switch = workload.replay(lambda: SilkRoadSwitch(config))
    assert switch.cpu.shed > len(conns) // 2  # the backlog really overflowed
    assert switch.relearns > 0
    _assert_audited(switch, conns)


def test_cpu_crash_costs_at_most_four_events_per_lost_job(monkeypatch, workload):
    count = _count_events(monkeypatch, float("inf"))
    workload.replay(lambda: SilkRoadSwitch(SilkRoadConfig()))
    baseline = count[0]

    count = _count_events(
        monkeypatch, baseline + EVENTS_PER_CONNECTION * len(workload.connections)
    )
    crash = FaultPlan(events=(
        FaultEvent(time=2.0, kind=FaultKind.CPU_CRASH, duration_s=3.0),
    ))
    _report, conns, switch = workload.replay(
        lambda: SilkRoadSwitch(SilkRoadConfig()), faults=FaultInjector(crash)
    )
    lost = switch.cpu.lost
    assert lost > 100  # the crash really took work with it
    assert count[0] <= baseline + EVENTS_PER_CONNECTION * lost
    _assert_audited(switch, conns)


def _switch(vip, dips, **config):
    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=1024, **config))
    switch.announce_vip(vip, dips)
    return switch


def _arrive(switch, conn):
    switch.queue.run_until(conn.start)
    switch.on_connection_arrival(conn)


def test_shed_fp_redirect_relocates_when_it_installs(monkeypatch, vip, dips, tuples):
    # Backlog 1 and a 100 ms install: the redirected SYN arrives while
    # another job holds the only slot, so its ("fp",) job is shed and waits.
    switch = _switch(
        vip, dips, digest_bits=4, insertion_rate_per_s=10.0, cpu_max_backlog=1
    )
    resident = Connection(1, tuples.next_for(vip).key_bytes(), vip, 0.0, 100.0)
    _arrive(switch, resident)
    switch.queue.run_until(0.5)
    assert switch.conn_table.get_exact(resident.key) is not None

    def draw(conn_id, start, hit):
        while True:
            key = tuples.next_for(vip).key_bytes()
            conn = Connection(conn_id, key, vip, start, 100.0)
            if switch.conn_table.lookup(conn.key, conn.key_hash).hit == hit:
                return conn

    blocker = draw(2, 0.5, hit=False)
    colliding = draw(3, 0.55, hit=True)  # its lookup hits the resident entry
    relocated = []
    relocate = switch.conn_table.relocate_colliding_entry

    def spy(key, key_hash=None):
        relocated.append(key)
        return relocate(key, key_hash)

    monkeypatch.setattr(switch.conn_table, "relocate_colliding_entry", spy)
    _arrive(switch, blocker)
    _arrive(switch, colliding)
    assert switch.cpu.backlog == 1
    assert switch.fp_syn_redirects == 1
    assert switch.cpu.shed == 1
    switch.queue.run_until(1.0)
    assert switch.relearns == 1
    assert relocated == [colliding.key]
    for conn in (resident, blocker, colliding):
        assert switch.conn_table.get_exact(conn.key) is not None
    assert switch.pending_connections() == 0
    _assert_audited(switch, [resident, blocker, colliding])


def test_connection_ending_while_it_waits_is_never_reoffered(vip, dips, tuples):
    switch = _switch(vip, dips, insertion_rate_per_s=100.0, cpu_max_backlog=1)
    first = Connection(1, tuples.next_for(vip).key_bytes(), vip, 0.0, 100.0)
    second = Connection(2, tuples.next_for(vip).key_bytes(), vip, 0.0, 0.002)
    _arrive(switch, first)
    _arrive(switch, second)
    switch.queue.run_until(0.0015)  # one batch: the first queues, the second sheds
    assert switch.cpu.shed == 1
    assert switch.pending_connections() == 2
    switch.on_connection_end(second)
    offered = switch.metrics.get("learning_filter.events_offered_total")
    before = offered.value
    switch.queue.run_until(1.0)  # the first installs: room, but nothing waits
    assert switch.cpu.completed == 1
    assert switch.relearns == 0
    assert offered.value == before
    assert switch.pending_connections() == 0
    _assert_audited(switch, [first, second])


def test_key_failing_a_long_write_window_installs_soon_after_it(vip, dips, tuples):
    # Every write fails for 1 s and nothing else arrives, so no acknowledged
    # install re-offers the key: only the re-learn timer does, and its cap
    # (160 ms) bounds how long the key stays unmatched once the bus is back.
    switch = _switch(vip, dips)
    FaultInjector(
        FaultPlan(events=(FaultEvent(
            time=0.0, kind=FaultKind.INSTALL_FAIL_WINDOW, duration_s=1.0, probability=1.0
        ),))
    ).attach(switch, switch.queue)
    conn = Connection(1, tuples.next_for(vip).key_bytes(), vip, 0.1, 100.0)
    _arrive(switch, conn)
    switch.queue.run_until(1.0)
    assert switch.cpu.install_failures > 3
    assert switch.conn_table.get_exact(conn.key) is None
    switch.queue.run_until(1.2)
    assert switch.conn_table.get_exact(conn.key) is not None
    _assert_audited(switch, [conn])
