"""A connection's DIP is selected once, at admission.

The install pins a connection to its arrival version, which its admission
pick already reflects.  Only a remap path (the t_exec remap of unmarked
overflow connections, ``_finish_update`` for Bloom-FP adopters and at-risk
connections, ``_remap_pending`` without a TransitTable) moves a pending
decision off that pick, and only such a connection is re-selected — and so
reverted — at install.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    Connection,
    FlowSimulator,
    TupleFactory,
    UpdateEvent,
    UpdateKind,
    make_cluster,
    uniform_vip_workloads,
)
from repro.netsim.batchsim import BatchedFlowSimulator
from repro.netsim.packet import DirectIP

from .test_transit_fp_path import drive


@pytest.mark.parametrize("simulator", [FlowSimulator, BatchedFlowSimulator])
def test_select_runs_once_per_admitted_connection_without_updates(simulator):
    cluster = make_cluster(num_vips=3, dips_per_vip=8)
    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=20_000))
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=5).generate(
        uniform_vip_workloads(cluster.vips, 3000.0), horizon_s=30.0
    ).records()
    select = switch.dip_pools.select
    calls = []

    def counting(vip, version, key, key_hash=None):
        calls.append(key)
        return select(vip, version, key, key_hash)

    switch.dip_pools.select = counting
    simulator(switch).run(conns, horizon_s=30.0)
    assert switch.cpu.completed > 0
    assert len(calls) == switch.connections_seen == len(conns)
    assert len(set(calls)) == len(calls)


def _expected_log(switch, vip, conn, pinned, remapped_to, t_remap):
    """Admission pick, then — when the remap changed it — the remapped
    pick at ``t_remap`` and the revert to the pinned pick at install."""
    pick = switch.dip_pools.select(vip, pinned, conn.key, conn.key_hash)
    moved = switch.dip_pools.select(vip, remapped_to, conn.key, conn.key_hash)
    if moved == pick:
        return [(conn.start, pick)]
    t_install = conn.decisions[-1][0]
    assert t_install > t_remap
    return [(conn.start, pick), (t_remap, moved), (t_install, pick)]


def test_no_transit_remapped_pending_connection_reverts_at_install():
    cluster = make_cluster(num_vips=1, dips_per_vip=8)
    vip = cluster.vips[0]
    switch = SilkRoadSwitch(
        SilkRoadConfig(
            conn_table_capacity=10_000,
            use_transit_table=False,
            insertion_rate_per_s=100.0,  # every connection is still pending
            learning_filter_timeout_s=10e-3,
        )
    )
    switch.announce_vip(vip, cluster.services[0].dips)
    before = switch.dip_pools.current_version(vip)
    factory = TupleFactory()
    queue = switch.queue
    conns = []
    for i in range(24):
        conn = Connection(
            conn_id=i,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=0.001 + i * 1e-5,
            duration=3600.0,
        )
        queue.schedule(conn.start, lambda c=conn: switch.on_connection_arrival(c))
        conns.append(conn)
    spare = DirectIP(0x0BADF00D, 80)
    queue.schedule(
        0.005, lambda: switch.apply_update(UpdateEvent(0.005, vip, UpdateKind.ADD, spare))
    )
    queue.run_until(5.0)
    after = switch.dip_pools.current_version(vip)
    assert after != before
    assert switch.cpu.completed == len(conns)
    reverted = 0
    for conn in conns:
        expected = _expected_log(switch, vip, conn, before, after, 0.005)
        assert conn.decisions == expected
        reverted += len(expected) == 3
    assert reverted > 0


def test_fp_adopter_whose_update_finishes_first_reverts_at_install():
    switch, step2 = drive()
    vip = step2[0].vip
    (timing,) = switch.coordinator.timings
    old = 0  # the VIP's first version
    new = switch.dip_pools.current_version(vip)
    adopters = [c for c in step2 if c.key in switch.fp_adopted_keys]
    assert adopters
    reverted = 0
    for conn in adopters:
        expected = _expected_log(switch, vip, conn, old, new, timing.t_finish)
        assert conn.decisions == expected
        reverted += len(expected) == 3
    assert reverted > 0
