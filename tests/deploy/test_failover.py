"""§7 switch failover on the one multi-switch deployment, `FleetSilkRoad`.

The fleet has no instant-failover mode; the *caller* is the oracle.
Crashing a switch and declaring it down at the same instant is
zero-detection-latency failover, and a crash with ``restart_after_s`` plus
the controller's own rejoin is revival.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig
from repro.deploy.fleet import FleetSilkRoad, _COUNTERS, audit_fleet
from repro.obs.causes import REHASH
from repro.experiments import switch_failure
from repro.experiments.common import PccWorkload
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateEvent,
    UpdateKind,
    make_cluster,
    uniform_vip_workloads,
)
from repro.netsim.batchsim import BatchedFlowSimulator
from repro.netsim.simulator import PRIO_INTERNAL


def build(num_switches=3, conns_per_min=3000.0, horizon=60.0, seed=9):
    cluster = make_cluster(num_vips=2, dips_per_vip=6)
    fleet = FleetSilkRoad(
        num_switches=num_switches,
        config=SilkRoadConfig(conn_table_capacity=50_000),
    )
    for service in cluster.services:
        fleet.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads(cluster.vips, conns_per_min), horizon_s=horizon
    ).records()
    return cluster, fleet, conns


def schedule_failure(queue, fleet, index, at, revive_at=None):
    """Oracle failover of ``index`` at ``at`` (rebooting at ``revive_at``).

    Returns a dict the oracle fills with the fleet's hand-off count right
    after the failover, so tests can tell fail-over moves from fail-back.
    """
    seen = {}
    restart_after_s = None if revive_at is None else revive_at - at

    def oracle():
        fleet.inject_switch_crash(index, restart_after_s=restart_after_s)
        fleet.declare_down(index)
        seen["failed_over"] = fleet.handoffs

    queue.schedule(at, oracle, PRIO_INTERNAL)
    return seen


def switch_at(fleet, index):
    """The current instance at fleet position ``index``."""
    return [sw for i, _gen, sw in fleet.instances() if i == index][-1]


class TestSharding:
    def test_flows_spread_across_switches(self):
        _cluster, fleet, conns = build()
        report = FlowSimulator(fleet).run(conns, horizon_s=60.0)
        entries = [len(sw.conn_table) for _i, _gen, sw in fleet.instances()]
        assert len(entries) == 3 and all(e > 0 for e in entries)
        assert report.pcc_violations == 0

    def test_updates_reach_every_switch(self):
        cluster, fleet, conns = build()
        vip = cluster.vips[0]
        update = UpdateEvent(30.0, vip, UpdateKind.REMOVE, cluster.services[0].dips[0])
        FlowSimulator(fleet).run(conns, [update], horizon_s=60.0)
        assert fleet.assigned_switches(vip) == [0, 1, 2]
        for _i, _gen, switch in fleet.instances():
            assert switch.coordinator.updates_requested == 1
            current = switch.dip_pools.current_version(vip)
            assert cluster.services[0].dips[0] not in switch.dip_pools.pool(vip, current)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSilkRoad(num_switches=0)


class TestFailover:
    def test_no_update_no_breakage(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 1, at=40.0)
        report = sim.run(conns, horizon_s=60.0)
        assert fleet.handoffs > 0
        # Zero detection latency: nothing arrived into the void.
        assert fleet.blackholed_arrivals == 0
        # Same VIPTable everywhere: re-hashed flows land on the same DIP.
        assert report.pcc_violations == 0
        assert fleet.alive_switches() == [0, 2]
        assert fleet.in_ecmp_switches() == [0, 2]

    def test_old_version_connections_exposed(self):
        cluster, fleet, conns = build(horizon=90.0)
        vip = cluster.vips[0]
        update = UpdateEvent(40.0, vip, UpdateKind.REMOVE, cluster.services[0].dips[-1])
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 1, at=60.0)
        report = sim.run(conns, [update], horizon_s=90.0)
        assert fleet.handoffs > 0
        assert report.pcc_violations > 0  # old-version flows re-hashed

    def test_failing_a_dead_or_the_last_switch_degrades_loudly(self):
        # The fleet never refuses a failure: declaring a dead switch down
        # again is a no-op, and losing the last announcer darkens its VIPs
        # (arrivals counted as unserved) instead of raising.
        _cluster, fleet, conns = build(num_switches=2)
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 0, at=10.0)
        schedule_failure(sim.queue, fleet, 0, at=11.0)  # already dead
        schedule_failure(sim.queue, fleet, 1, at=12.0)  # last one standing
        sim.run(conns, horizon_s=40.0)
        assert fleet.crashes == 2 and fleet.detections == 2
        assert fleet.alive_switches() == []
        assert fleet.unserved_arrivals > 0
        audit = audit_fleet(fleet, conns)
        assert audit.ok and audit.unattributed_drops == 0

    def test_report_fields(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 2, at=30.0)
        sim.run(conns, horizon_s=60.0)
        report = fleet.report()
        assert report["crashes"] == 1.0
        assert report["detections"] == 1.0
        assert report["switches_up"] == 2.0
        assert report["switches_in_ecmp"] == 2.0
        assert report["handoffs"] == float(fleet.handoffs) > 0


class TestScheduling:
    def test_schedule_failure_before_bind(self):
        # ``replay(attach=)`` runs before the simulator binds the fleet to
        # its queue — the hook the §7 experiment schedules its oracle from.
        cluster, _fleet, _conns = build()
        workload = PccWorkload(
            cluster=cluster,
            connections=ArrivalGenerator(seed=9).generate(
                uniform_vip_workloads(cluster.vips, 3000.0), horizon_s=60.0
            ),
            updates=[], horizon_s=60.0, updates_per_min=0.0,
        )

        def attach(sim, fleet):
            assert not hasattr(fleet, "queue")
            schedule_failure(sim.queue, fleet, 1, at=30.0)

        _report, _conns, fleet = workload.replay(
            lambda: FleetSilkRoad(
                num_switches=3, config=SilkRoadConfig(conn_table_capacity=50_000)
            ),
            attach=attach,
        )
        assert fleet.detections == 1
        assert 1 not in fleet.alive_switches()

    def test_schedule_failure_after_bind(self):
        # Mid-run, through the fleet's own bound queue.
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(
            10.0,
            lambda: schedule_failure(fleet.queue, fleet, 1, at=30.0),
            PRIO_INTERNAL,
        )
        sim.run(conns, horizon_s=60.0)
        assert fleet.detections == 1
        assert 1 not in fleet.alive_switches()


class TestRevival:
    def test_revive_rejoins_and_fails_back(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        seen = schedule_failure(sim.queue, fleet, 1, at=20.0, revive_at=40.0)
        sim.run(conns, horizon_s=60.0)
        assert fleet.restarts == 1 and fleet.rejoins == 1
        assert fleet.alive_switches() == [0, 1, 2]
        assert fleet.in_ecmp_switches() == [0, 1, 2]
        assert fleet.handoffs > seen["failed_over"] > 0  # flows moved back

    def test_revived_switch_resyncs_viptable_before_ecmp(self):
        # An update lands while switch 1 is dead; after revival its fresh
        # instance must already hold the post-update pool (a stale
        # announcement would re-break PCC for re-homed flows).
        cluster, fleet, conns = build()
        vip = cluster.vips[0]
        removed = cluster.services[0].dips[0]
        update = UpdateEvent(25.0, vip, UpdateKind.REMOVE, removed)
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 1, at=20.0, revive_at=40.0)
        sim.run(conns, [update], horizon_s=60.0)
        assert fleet.updates_missed == 1 and fleet.resyncs == 1
        revived = switch_at(fleet, 1)
        current = revived.dip_pools.current_version(vip)
        assert removed not in revived.dip_pools.pool(vip, current)

    def test_post_rejoin_connections_keep_pcc(self):
        # No updates anywhere: flows moved off at failure and moved back
        # at revival re-hash under the same VIPTable (or resume their
        # still-installed entry) and must never change DIP.
        _cluster, fleet, conns = build(horizon=80.0)
        sim = FlowSimulator(fleet)
        seen = schedule_failure(sim.queue, fleet, 1, at=30.0, revive_at=50.0)
        report = sim.run(conns, horizon_s=80.0)
        assert fleet.handoffs > seen["failed_over"]
        assert report.pcc_violations == 0


class TestReportEntries:
    def test_dead_switch_entries_not_counted_live(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        schedule_failure(sim.queue, fleet, 1, at=40.0)
        sim.run(conns, horizon_s=60.0)
        report = fleet.report()
        # The dead switch's ConnTable died with it: its per-switch key is
        # gone and the fleet total is the sum over survivors only.
        assert f"{switch_at(fleet, 1).name}_conn_entries" not in report
        alive_sum = sum(
            len(switch_at(fleet, i).conn_table) for i in fleet.alive_switches()
        )
        assert report["fleet_conn_entries"] == float(alive_sum)
        for index in fleet.alive_switches():
            switch = switch_at(fleet, index)
            assert report[f"{switch.name}_conn_entries"] == float(
                len(switch.conn_table)
            )


class TestCounters:
    def test_every_surface_comes_from_the_one_declaration(self):
        # Give each counter a distinct value; the gauges, report() and the
        # replica-agreement digest must all read it back by name/position.
        fleet = FleetSilkRoad(num_switches=2)
        for position, name in enumerate(_COUNTERS):
            assert getattr(fleet, name) == 0
            setattr(fleet, name, 1000 + position)
        expected = {name: 1000.0 + i for i, name in enumerate(_COUNTERS)}

        derived = ("switches_in_ecmp", "switches_up")
        gauges = {
            name[len("fleet."):]: value
            for name, value in fleet.metrics.snapshot().items()
            if name.startswith("fleet.")
        }
        assert {k: v for k, v in gauges.items() if k not in derived} == expected

        report = fleet.report()
        assert list(report)[: len(_COUNTERS)] == list(_COUNTERS)
        assert {name: report[name] for name in _COUNTERS} == expected

        digest = fleet.epoch_digest()
        # journal count/hash + four state sizes lead, two probe counters trail.
        assert len(digest) == 6 + len(_COUNTERS) + 2
        assert digest[6:-2] == tuple(1000 + i for i in range(len(_COUNTERS)))


class TestBatchedDifferential:
    @pytest.mark.parametrize("batch_size", [1, 64, 1024])
    def test_batched_matches_scalar(self, batch_size):
        cluster, fleet, scalar_conns = build(conns_per_min=2000.0)
        vip = cluster.vips[0]
        updates = [
            UpdateEvent(25.0, vip, UpdateKind.REMOVE, cluster.services[0].dips[-1])
        ]
        scalar_sim = FlowSimulator(fleet)
        schedule_failure(scalar_sim.queue, fleet, 1, at=35.0, revive_at=50.0)
        scalar_report = scalar_sim.run(scalar_conns, updates, horizon_s=60.0)

        _c2, fleet2, batched_conns = build(conns_per_min=2000.0)
        batched_sim = BatchedFlowSimulator(fleet2, batch_size=batch_size)
        schedule_failure(batched_sim.queue, fleet2, 1, at=35.0, revive_at=50.0)
        batched_report = batched_sim.run(batched_conns, updates, horizon_s=60.0)

        assert fleet.rejoins == 1 and scalar_report.pcc_violations > 0
        assert batched_report.pcc_violations == scalar_report.pcc_violations
        for s_conn, b_conn in zip(scalar_conns, batched_conns):
            assert s_conn.decisions == b_conn.decisions
        assert fleet2.report() == fleet.report()
        assert fleet2.fingerprint() == fleet.fingerprint()


class TestExperiment:
    def test_shape(self):
        points = switch_failure.run(scale=0.1, horizon_s=60.0, failure_at=40.0)
        quiet = next(p for p in points if not p.update_before_failure)
        churned = next(p for p in points if p.update_before_failure)
        # §7: failover alone breaks nothing (same VIPTable everywhere);
        # old-version connections are the only exposure.
        assert quiet.failed_over > 0
        assert quiet.violations == 0
        assert churned.violations > 0
        assert churned.failed_over > 0
        assert churned.violations <= churned.failed_over
        for point in points:
            audit = point.audit
            assert audit.ok, str(audit)
            assert audit.unattributed_violations == audit.unattributed_drops == 0
            # Every break is a version-pinned flow the failover re-hashed.
            assert audit.violation_causes[REHASH] == audit.violations
        assert churned.audit.violations >= churned.violations
