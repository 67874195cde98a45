"""Tests for fleet-scope fault plans and their delivery to a fleet."""

from __future__ import annotations

import pytest

from repro.faults import (
    FAILURE_PATTERNS,
    FLEET_KINDS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)


class TestPlan:
    def test_generation_is_deterministic(self):
        fleet = dict(faults_per_min=4.0, kinds=FLEET_KINDS, num_switches=4)
        a = FaultPlan.generate(seed=5, horizon_s=60.0, **fleet)
        b = FaultPlan.generate(seed=5, horizon_s=60.0, **fleet)
        assert a.events == b.events
        c = FaultPlan.generate(seed=6, horizon_s=60.0, **fleet)
        assert a.events != c.events

    def test_event_count_follows_rate(self):
        plan = FaultPlan.generate(
            seed=1, horizon_s=60.0, num_switches=4, faults_per_min=6.0,
            kinds=FLEET_KINDS,
        )
        assert len(plan) == 6
        sparse = FaultPlan.generate(
            seed=1, horizon_s=10.0, num_switches=4, faults_per_min=0.1,
            kinds=FLEET_KINDS,
        )
        assert len(sparse) == 1  # positive rate -> at least one fault
        silent = FaultPlan.generate(
            seed=1, horizon_s=60.0, num_switches=4, faults_per_min=0.0,
            kinds=FLEET_KINDS,
        )
        assert len(silent) == 0

    def test_events_sorted_and_kind_restricted(self):
        plan = FaultPlan.generate(
            seed=3,
            horizon_s=120.0,
            num_switches=4,
            faults_per_min=10.0,
            kinds=(FaultKind.SWITCH_CRASH,),
        )
        times = [e.time for e in plan]
        assert times == sorted(times)
        assert set(plan.kinds()) == {FaultKind.SWITCH_CRASH}
        assert all(0 <= e.switch < 4 for e in plan)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.SWITCH_CRASH)
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0, kind=FaultKind.SWITCH_CRASH, duration_s=-1.0
            )
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0, kind=FaultKind.HEARTBEAT_LOSS, count=0
            )
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=1, horizon_s=0.0, num_switches=4)
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=1, horizon_s=10.0, num_switches=0)
        with pytest.raises(ValueError):
            FaultPlan.generate(
                seed=1, horizon_s=10.0, num_switches=4, kinds=()
            )

    def test_patterns_cover_known_kinds(self):
        assert set(FAILURE_PATTERNS) == {
            "crash",
            "partition",
            "flap",
            "cascade",
            "mixed",
        }
        for overrides in FAILURE_PATTERNS.values():
            for kind in overrides["kinds"]:
                assert kind in FLEET_KINDS


class TestInjector:
    def test_delivers_every_event(self):
        from repro.deploy.fleet import FleetSilkRoad
        from repro.netsim import (
            ArrivalGenerator,
            FlowSimulator,
            make_cluster,
            uniform_vip_workloads,
        )

        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        fleet = FleetSilkRoad(num_switches=3)
        for service in cluster.services:
            fleet.announce_vip(service.vip, service.dips)
        conns = ArrivalGenerator(seed=4).generate(
            uniform_vip_workloads(cluster.vips, 600.0), horizon_s=30.0
        ).records()
        plan = FaultPlan.generate(
            seed=8, horizon_s=30.0, num_switches=3, faults_per_min=8.0,
            kinds=FLEET_KINDS,
        )
        injector = FaultInjector(plan)
        sim = FlowSimulator(fleet, faults=injector)
        sim.run(conns, horizon_s=30.0)
        assert sum(injector.injected.values()) == len(plan)
