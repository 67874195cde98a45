"""Deterministic tests of the step-2 TransitTable false-positive path.

The Figure-18 mechanism, exercised surgically: saturate a tiny (8-byte)
filter during step 1, then watch a step-2 arrival falsely match it, adopt
the old pool version, and lose that protection at t_finish.  The paper's
Figure 18 measures exactly this, with no SYN-redirect mitigation.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import Connection, TupleFactory, UpdateEvent, UpdateKind, make_cluster


def drive():
    """Run the crafted scenario; returns (switch, step2_conns)."""
    cluster = make_cluster(num_vips=1, dips_per_vip=8)
    vip = cluster.vips[0]
    config = SilkRoadConfig(
        conn_table_capacity=10_000,
        transit_table_bytes=8,  # 64 bits: saturates quickly
        insertion_rate_per_s=100.0,  # slow CPU stretches the steps
        learning_filter_timeout_s=10e-3,
    )
    switch = SilkRoadSwitch(config)
    switch.announce_vip(vip, cluster.services[0].dips)
    factory = TupleFactory()
    queue = switch.queue

    def arrive(cid, when):
        conn = Connection(
            conn_id=cid,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=when,
            duration=3600.0,
        )
        queue.schedule(when, lambda: switch.on_connection_arrival(conn))
        return conn

    # One connection before the update request: its installation gates
    # t_exec, holding the switch in step 1.
    arrive(0, 0.001)
    # The update request arrives; step 1 begins.
    victim = cluster.services[0].dips[0]
    queue.schedule(
        0.005,
        lambda: switch.apply_update(UpdateEvent(0.005, vip, UpdateKind.REMOVE, victim)),
    )
    # A burst of step-1 arrivals saturates the 64-bit filter (each sets 4
    # bits).  They all arrive before the pre-request conn installs (the CPU
    # needs ~10 ms + queue for it).
    for i in range(40):
        arrive(1 + i, 0.006 + i * 1e-5)
    queue.run_until(0.04)  # past t_exec: pre-request conn installed
    assert switch.coordinator.updates_requested == 1
    # We are in step 2 now (marked conns still pending on the slow CPU).
    entry = switch.vip_table.lookup(vip)
    assert entry.in_transition, "scenario did not reach step 2"
    assert switch.transit.fill_ratio > 0.9, "filter did not saturate"

    # Step-2 arrivals: every one false-positives against the full filter.
    step2 = [arrive(100 + i, 0.041 + i * 1e-4) for i in range(5)]
    queue.run_until(0.05)
    # Let everything install and the update finish.
    queue.run_until(5.0)
    assert switch.coordinator.updates_completed == 1
    return switch, step2


class TestTransitFalsePositives:
    def test_fp_adoption_without_mitigation(self):
        switch, step2 = drive()
        # The saturated filter false-positives for most step-2 arrivals.
        assert switch.transit_fp_adopted >= len(step2) // 2
        # Some adopted connections whose old/new mappings differ flip at
        # t_finish — the Figure 18 violations.
        flipped = [c for c in step2 if c.remapped and not c.broken_by_removal]
        assert flipped, "expected at least one old->new remap at t_finish"
        assert any(c.pcc_violated for c in step2)

    def test_large_filter_never_false_positives(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=8)
        vip = cluster.vips[0]
        switch = SilkRoadSwitch(
            SilkRoadConfig(
                conn_table_capacity=10_000,
                transit_table_bytes=256,
                insertion_rate_per_s=100.0,
                learning_filter_timeout_s=10e-3,
            )
        )
        switch.announce_vip(vip, cluster.services[0].dips)
        factory = TupleFactory()
        queue = switch.queue
        conns = []
        for i in range(40):
            conn = Connection(
                conn_id=i,
                key=factory.next_for(vip).key_bytes(),
                vip=vip,
                start=0.001 + i * 1e-5,
                duration=3600.0,
            )
            queue.schedule(conn.start, lambda c=conn: switch.on_connection_arrival(c))
            conns.append(conn)
        queue.schedule(
            0.005,
            lambda: switch.apply_update(
                UpdateEvent(0.005, vip, UpdateKind.REMOVE, cluster.services[0].dips[0])
            ),
        )
        queue.run_until(5.0)
        assert switch.transit_fp_adopted == 0
        assert all(not c.pcc_violated for c in conns)
