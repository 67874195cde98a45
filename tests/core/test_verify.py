"""Tests for the whole-switch invariant verifier."""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import AuditReport, InvariantViolation, audit_switch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateGenerator,
    make_cluster,
    spare_pool,
    uniform_vip_workloads,
)


def run_busy_switch(seed=31, updates_per_min=30.0, horizon=60.0):
    cluster = make_cluster(num_vips=3, dips_per_vip=6)
    switch = SilkRoadSwitch(
        SilkRoadConfig(conn_table_capacity=30_000, insertion_rate_per_s=20_000.0)
    )
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads(cluster.vips, 6_000.0), horizon_s=horizon, warmup_s=10.0
    ).records()
    updates = UpdateGenerator(seed=seed + 1).poisson_updates(
        cluster.pools(), updates_per_min=updates_per_min, horizon_s=horizon,
        spare_dips=spare_pool(cluster),
    )
    sim = FlowSimulator(switch)
    sim.run(conns, updates, horizon_s=horizon)
    return switch, sim


class TestVerifyCleanStates:
    def test_freshly_provisioned_switch(self):
        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=1000))
        for service in cluster.services:
            switch.announce_vip(service.vip, service.dips)
        audit_switch(switch).raise_if_failed()

    def test_after_busy_simulation(self):
        switch, _sim = run_busy_switch()
        audit_switch(switch).raise_if_failed()

    def test_after_drain(self):
        switch, sim = run_busy_switch(horizon=40.0)
        sim.queue.run_until(4000.0)  # all connections end and expire
        audit_switch(switch).raise_if_failed()

    def test_mid_simulation_snapshots(self):
        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=10_000))
        for service in cluster.services:
            switch.announce_vip(service.vip, service.dips)
        conns = ArrivalGenerator(seed=5).generate(
            uniform_vip_workloads(cluster.vips, 3_000.0), horizon_s=30.0
        ).records()
        updates = UpdateGenerator(seed=6).poisson_updates(
            cluster.pools(), updates_per_min=20.0, horizon_s=30.0,
            spare_dips=spare_pool(cluster),
        )
        sim = FlowSimulator(switch)
        switch.bind(sim.queue)
        for conn in conns:
            sim.queue.schedule(conn.start, lambda c=conn: switch.on_connection_arrival(c), 2)
            sim.queue.schedule(conn.end, lambda c=conn: switch.on_connection_end(c), 3)
        for event in updates:
            sim.queue.schedule(event.time, lambda e=event: switch.apply_update(e), 0)
        for checkpoint in (5.0, 10.0, 20.0, 30.0):
            sim.queue.run_until(checkpoint)
            audit_switch(switch).raise_if_failed()


class TestVerifyCatchesCorruption:
    def test_detects_refcount_drift(self):
        switch, _sim = run_busy_switch(horizon=30.0)
        vip = switch.vip_table.vips()[0]
        version = switch.dip_pools.current_version(vip)
        switch.dip_pools.acquire(vip, version)  # phantom reference
        with pytest.raises(InvariantViolation):
            audit_switch(switch).raise_if_failed()

    def test_detects_version_mismatch(self):
        switch, _sim = run_busy_switch(horizon=30.0, updates_per_min=0.0)
        key = next(iter(switch.conn_table.keys()))
        state = switch._states[key]
        switch.conn_table.update(key, (state.version + 1) % 64)
        with pytest.raises(InvariantViolation):
            audit_switch(switch).raise_if_failed()

    def test_detects_stale_pending_index(self):
        switch, _sim = run_busy_switch(horizon=30.0, updates_per_min=0.0)
        vip = switch.vip_table.vips()[0]
        switch._pending_by_vip.setdefault(vip, set()).add(b"ghost-key")
        with pytest.raises(InvariantViolation):
            audit_switch(switch).raise_if_failed()

    def test_detects_stray_waiting_key(self):
        switch, _sim = run_busy_switch(horizon=30.0, updates_per_min=0.0)
        installed = next(k for k, s in switch._states.items() if s.installed)
        switch._waiting[installed] = ()
        report = audit_switch(switch)
        assert report.violations == ["waiting keys not live and pending: 1"]


class TestAuditReport:
    def test_clean_switch_audits_ok(self):
        switch, _sim = run_busy_switch()
        report = audit_switch(switch)
        assert report.ok
        assert report.violations == []
        assert report.checks_run == 6
        report.raise_if_failed()  # no-op when clean
        assert "ok" in str(report)

    def test_collects_instead_of_raising(self):
        switch, _sim = run_busy_switch(horizon=30.0)
        vip = switch.vip_table.vips()[0]
        version = switch.dip_pools.current_version(vip)
        switch.dip_pools.acquire(vip, version)  # phantom reference
        switch._pending_by_vip.setdefault(vip, set()).add(b"ghost-key")
        report = audit_switch(switch)  # does not raise
        assert not report.ok
        assert len(report.violations) >= 2
        assert "FAILED" in str(report)
        with pytest.raises(InvariantViolation):
            report.raise_if_failed()


class TestPccAttribution:
    def test_attributed_violations_pass(self):
        switch, sim = run_busy_switch(horizon=30.0)
        from repro.netsim.flows import Connection
        from repro.netsim.packet import DirectIP, TupleFactory

        vip = switch.vip_table.vips()[0]
        conn = Connection(
            conn_id=999_999, key=TupleFactory().next_for(vip).key_bytes(), vip=vip,
            start=0.0, duration=5.0,
        )
        conn.record_decision(0.0, DirectIP.parse("10.9.9.1:80"))
        conn.record_decision(1.0, DirectIP.parse("10.9.9.2:80"))
        assert conn.pcc_violated
        # Unattributed: the fault model never predicted this key.
        report = audit_switch(switch, connections=[conn])
        assert report.violations == ["1 PCC violations with no attributable cause"]
        assert report.unattributed_violations == 1
        # The count is a field, and merge() sums it across shards.
        assert AuditReport.merged([report, report]).unattributed_violations == 2
        # Attributed as watchdog at-risk: accepted.
        switch.at_risk_keys.add(conn.key)
        attributed = audit_switch(switch, connections=[conn])
        assert attributed.ok and attributed.unattributed_violations == 0
        # Overflow and Bloom-FP exposure count as predictions too.
        switch.at_risk_keys.discard(conn.key)
        switch.overflow_keys.add(conn.key)
        assert audit_switch(switch, connections=[conn]).ok

    def test_a_switch_drop_is_unattributed(self):
        # A switch is the rule with no fleet causes: it records no drop
        # cause, so any connection that lost its packets fails the audit,
        # whatever exposure set holds its key.
        switch, _sim = run_busy_switch(horizon=30.0)
        from repro.netsim.flows import Connection
        from repro.netsim.packet import DirectIP, TupleFactory

        vip = switch.vip_table.vips()[0]
        conn = Connection(
            conn_id=999_997, key=TupleFactory().next_for(vip).key_bytes(), vip=vip,
            start=0.0, duration=5.0,
        )
        conn.record_decision(0.0, DirectIP.parse("10.9.9.1:80"))
        conn.record_decision(1.0, None)
        assert conn.ever_dropped and not conn.pcc_violated
        switch.at_risk_keys.add(conn.key)
        report = audit_switch(switch, connections=[conn])
        assert report.violations == [
            "1 dropped connections with no attributable cause"
        ]
        assert report.unattributed_violations == 0
        assert report.checks_run == 7

    def test_broken_by_removal_not_counted(self):
        switch, _sim = run_busy_switch(horizon=30.0)
        from repro.netsim.flows import Connection
        from repro.netsim.packet import DirectIP, TupleFactory

        vip = switch.vip_table.vips()[0]
        conn = Connection(
            conn_id=999_998, key=TupleFactory().next_for(vip).key_bytes(), vip=vip,
            start=0.0, duration=5.0,
        )
        conn.record_decision(0.0, DirectIP.parse("10.9.9.1:80"))
        conn.record_decision(1.0, DirectIP.parse("10.9.9.2:80"))
        conn.broken_by_removal = True  # its DIP went down: not an LB break
        assert audit_switch(switch, connections=[conn]).ok

    def test_skipped_without_transit_table(self):
        cluster_switch = SilkRoadSwitch(
            SilkRoadConfig(conn_table_capacity=1000, use_transit_table=False)
        )
        from repro.netsim import make_cluster

        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        cluster_switch.announce_vip(
            cluster.vips[0], cluster.services[0].dips
        )
        from repro.netsim.flows import Connection
        from repro.netsim.packet import DirectIP, TupleFactory

        conn = Connection(
            conn_id=1, key=TupleFactory().next_for(cluster.vips[0]).key_bytes(),
            vip=cluster.vips[0], start=0.0, duration=5.0,
        )
        conn.record_decision(0.0, DirectIP.parse("10.9.9.1:80"))
        conn.record_decision(1.0, DirectIP.parse("10.9.9.2:80"))
        # Ablated TransitTable: violations are the expected behaviour, so
        # attribution is not enforced.
        assert audit_switch(cluster_switch, connections=[conn]).ok
