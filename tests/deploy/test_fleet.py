"""Tests for the fleet failure domain: detection, failover, attribution."""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig
from repro.deploy import fleet as fleet_module
from repro.deploy.fleet import FleetSilkRoad, audit_fleet
from repro.obs.causes import BLACKHOLE, RACE, REHASH, SHED
from repro.obs.recorder import FlightRecorder
from repro.experiments.parallel import run_sharded
from repro.faults.fleet import run_fleet
from repro.netsim.batchsim import BatchedFlowSimulator
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    make_cluster,
    uniform_vip_workloads,
)

from ..scalar_oracle import oracle_driver


def build(
    num_switches=3,
    conns_per_min=2000.0,
    horizon=60.0,
    seed=9,
    num_vips=2,
    **fleet_knobs,
):
    cluster = make_cluster(num_vips=num_vips, dips_per_vip=6)
    fleet = FleetSilkRoad(
        num_switches=num_switches,
        config=SilkRoadConfig(conn_table_capacity=50_000),
        **fleet_knobs,
    )
    for service in cluster.services:
        fleet.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads(cluster.vips, conns_per_min), horizon_s=horizon
    ).records()
    return cluster, fleet, conns


class TestDetection:
    def test_crash_detected_after_suspicion_threshold(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "HEARTBEAT_INTERVAL_S", 0.5)
        monkeypatch.setattr(fleet_module, "SUSPICION_THRESHOLD", 4)
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        seen = {}
        sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1), 1)
        for t in (21.4, 22.1):
            sim.queue.schedule(t, lambda t=t: seen.setdefault(t, fleet.detections), 1)
        sim.run(conns, horizon_s=60.0)
        # Detection cannot be instant: it takes four missed probes half a
        # second apart, and the first may come right at the crash.
        assert seen == {21.4: 0, 22.1: 1}
        assert fleet.detections == 1

    def test_blackhole_window_before_detection(self):
        # Flows owned by the crashed switch drop packets until the
        # controller notices; each one carries a blackhole attribution.
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1), 1)
        sim.run(conns, horizon_s=60.0)
        assert fleet.blackholed_existing > 0
        dropped = [c for c in conns if c.ever_dropped]
        assert dropped
        report = audit_fleet(fleet, conns)
        assert report.unattributed_drops == 0
        assert report.drop_causes[BLACKHOLE] > 0

    def test_heartbeat_loss_causes_false_detection(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.inject_heartbeat_loss(1, 5), 1)
        sim.run(conns, horizon_s=60.0)
        assert fleet.detections >= 1
        assert fleet.false_detections >= 1
        # The healthy switch keeps answering probes and rejoins.
        assert fleet.rejoins >= 1

    def test_partition_severs_control_plane_only(self):
        # Partitioned: probes missed (detected down) but the data plane
        # keeps forwarding — existing flows are NOT quiesced at the cut.
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(
            20.0, lambda: fleet.inject_partition(1, heal_after_s=10.0), 1
        )
        sim.run(conns, horizon_s=60.0)
        assert fleet.detections == 1
        assert fleet.heals == 1
        assert fleet.blackholed_existing == 0


class TestRejoin:
    def test_crash_restart_rejoin_relearns(self):
        cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(
            20.0, lambda: fleet.inject_switch_crash(1, restart_after_s=5.0), 1
        )
        sim.run(conns, horizon_s=60.0)
        assert fleet.restarts == 1
        assert fleet.rejoins == 1
        assert fleet.resyncs == 1
        # The rejoined instance re-announced every VIP before taking load.
        slot = fleet._slots[1]
        assert slot.in_ecmp and slot.synced
        assert {s.vip for s in cluster.services} <= slot.announced

    def test_post_rejoin_connections_keep_pcc(self):
        # No DIP updates: re-homed flows re-hash under identical pools, so
        # crash + rejoin must not break PCC for *new* post-rejoin conns,
        # and every break among moved ones is attributed.
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(
            20.0, lambda: fleet.inject_switch_crash(1, restart_after_s=5.0), 1
        )
        sim.run(conns, horizon_s=60.0)
        report = audit_fleet(fleet, conns)
        report.raise_if_failed()
        assert report.unattributed_violations == 0
        post = [c for c in conns if c.start >= 30.0]
        assert post and not any(c.pcc_violated for c in post)

    def test_last_alive_owner_blackholes_not_crashes(self):
        # Crashing every switch leaves VIPs unserved: arrivals blackhole
        # with attribution instead of raising.
        _cluster, fleet, conns = build(num_switches=2)
        sim = FlowSimulator(fleet)
        sim.queue.schedule(10.0, lambda: fleet.inject_switch_crash(0), 1)
        sim.queue.schedule(12.0, lambda: fleet.inject_switch_crash(1), 1)
        sim.run(conns, horizon_s=40.0)
        assert fleet.unserved_arrivals + fleet.blackholed_arrivals > 0
        report = audit_fleet(fleet, conns)
        assert report.unattributed_drops == 0


class TestShed:
    def test_overflow_shed_is_attributed(self):
        _cluster, fleet, conns = build(conn_budget=40, conns_per_min=4000.0)
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1), 1)
        sim.queue.schedule(22.0, lambda: fleet.inject_switch_crash(2), 1)
        sim.run(conns, horizon_s=60.0)
        assert fleet.vips_shed >= 1
        assert fleet.shed_connections > 0
        report = audit_fleet(fleet, conns)
        report.raise_if_failed()
        assert report.drop_causes[SHED] > 0
        assert report.unattributed_drops == 0

    def test_shed_prefers_lowest_priority(self):
        # Shed priority is announce order: the earliest-announced VIP is
        # the lowest priority, the first to go.
        cluster, fleet, conns = build(
            num_vips=4, conn_budget=250, conns_per_min=4000.0
        )
        recorder = FlightRecorder(capacity=1 << 20)
        fleet.attach_recorder(recorder)
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1), 1)
        sim.run(conns, horizon_s=60.0)
        announced = [str(s.vip) for s in cluster.services]
        assert not any(recorder.dropped.values())
        shed = [dict(e.attrs)["vip"] for e in recorder.events("fleet", "shed")]
        assert len(shed) == fleet.vips_shed
        # Every switch announces every VIP, so each one loads the survivor
        # that overflows: the VIPs shed are a prefix of the announce order,
        # shed in that order, and the budget is met before all are gone.
        assert 0 < len(shed) < len(announced), shed
        assert shed == announced[: len(shed)]


class TestReassignment:
    def test_three_step_reassign_completes(self):
        cluster, fleet, conns = build(
            replication=2
        )
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.request_reassign(0, 2), 1)
        sim.run(conns, horizon_s=60.0)
        assert fleet.reassignments_started == 1
        assert fleet.reassignments_completed == 1
        vip = cluster.services[0].vip
        assert vip in fleet._slots[2].announced

    def test_reassignment_attribution(self):
        _cluster, fleet, conns = build(replication=2)
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.request_reassign(0, 2), 1)
        sim.run(conns, horizon_s=60.0)
        report = audit_fleet(fleet, conns)
        report.raise_if_failed()
        assert report.unattributed_violations == 0
        moved_causes = set(fleet._move_cause.values())
        assert moved_causes <= {REHASH, RACE}

    def test_destination_crash_mid_window_aborts_cleanly(self):
        # Regression: a reassignment whose destination crashes inside the
        # 3-step window (announce at 20.05, drain, redirect at ~20.55;
        # crash at 20.2) must roll back to the source instead of
        # completing into a dead switch — the VIP stays served and the
        # stragglers keep their pinned decisions.
        cluster, fleet, conns = build(
            num_switches=2, replication=1
        )
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.request_reassign(0, 1), 1)
        sim.queue.schedule(20.2, lambda: fleet.inject_switch_crash(1), 1)
        sim.run(conns, horizon_s=60.0)
        assert fleet.reassignments_started == 1
        assert fleet.reassignments_aborted == 1
        assert fleet.reassignments_completed == 0
        # The source kept announcing; the VIP never went dark on it.
        vip = cluster.services[0].vip
        assert vip in fleet._slots[0].announced
        assert fleet._tables.get(vip) is not None
        # Flows that predate the window and outlive it stay on the source
        # with their pinned version — no break from the aborted move.
        spanning = [c for c in conns if c.start < 20.0 and c.end > 21.0]
        assert spanning
        assert not any(c.pcc_violated for c in spanning if c.vip == vip)
        # Arrivals that raced onto the doomed destination are attributed.
        report = audit_fleet(fleet, conns)
        report.raise_if_failed()
        assert report.unattributed_violations == 0
        assert report.unattributed_drops == 0


class TestAcceptanceSweep:
    def test_twenty_plans_zero_unattributed(self):
        # The PR acceptance bar: across >= 20 seeded fault plans covering
        # every failure pattern, 100% of PCC violations and drops carry a
        # fleet attribution.
        result = run_sharded(
            "fleet",
            num_shards=4,
            workers=1,
            seed=7,
            params=dict(
                plans_per_pattern=4,
                num_switches=3,
                scale=0.02,
                horizon_s=10.0,
                warmup_s=1.0,
            ),
        )
        assert not result.failed
        assert result.audit.ok, str(result.audit)

    def test_fingerprint_stable_across_runs_and_workers(self):
        params = dict(
            plans_per_pattern=1,
            num_switches=3,
            scale=0.02,
            horizon_s=8.0,
            warmup_s=1.0,
        )
        kw = dict(num_shards=4, seed=7, workers=1, params=params)
        first = run_sharded("fleet", **kw)
        again = run_sharded("fleet", **kw)
        assert first.fingerprint == again.fingerprint
        assert first.details() == again.details()

    def test_batched_matches_scalar(self):
        kw = dict(
            seed=9,
            fault_seed=42,
            pattern="mixed",
            num_switches=3,
            scale=0.03,
            horizon_s=12.0,
            warmup_s=1.0,
            faults_per_min=8.0,
        )
        batched = run_fleet(**kw)
        with oracle_driver():
            scalar = run_fleet(**kw)
        assert batched.fingerprint == scalar.fingerprint
        assert batched.survival == scalar.survival


class TestBookkeeping:
    def test_announce_rejects_duplicates(self):
        _cluster, fleet, _conns = build()
        vip = next(iter(fleet._pools))
        with pytest.raises(ValueError):
            fleet.announce_vip(vip, [])

    def test_report_counts_up_switches_only(self):
        _cluster, fleet, conns = build()
        sim = FlowSimulator(fleet)
        sim.queue.schedule(20.0, lambda: fleet.inject_switch_crash(1), 1)
        sim.run(conns, horizon_s=60.0)
        report = fleet.report()
        up = [s for s in fleet._slots if s.dataplane_up]
        total = sum(len(s.switch.conn_table) for s in up)
        assert report["fleet_conn_entries"] == float(total)
        assert report["detections"] == 1.0


class TestProfilePriming:
    """``FleetSilkRoad.prepare_batch`` is pure per-key derivation: whether
    the driver reaches it, how wide its windows are, and whether the owner
    it predicted still holds at arrival time change nothing observable."""

    def test_run_fleet_equal_across_drivers_and_window_sizes(self):
        kw = dict(
            seed=11,
            fault_seed=42,
            pattern="mixed",
            num_switches=4,
            scale=0.04,
            horizon_s=14.0,
            warmup_s=1.0,
            faults_per_min=10.0,
        )
        runs = []
        for driver in (
            dict(batched=False),  # never primed
            dict(batched=True, batch_size=1),
            dict(batched=True, batch_size=256),
        ):
            with oracle_driver(**driver):
                runs.append(run_fleet(**kw))
        assert runs[0].fleet.detections > 0
        for run in runs:
            assert run.audit.ok, str(run.audit)
        for run in runs[1:]:
            assert run.fingerprint == runs[0].fingerprint
            assert run.audit.fingerprint() == runs[0].audit.fingerprint()
            assert run.survival == runs[0].survival
            assert run.fleet.report() == runs[0].fleet.report()

    @staticmethod
    def _run_with_declare_down(batched, profile_cache_size=None):
        """One replay with a ``declare_down(1)`` landing mid-way through a
        256-arrival priming window; returns the comparable outcome plus what
        the test needs to show the window really straddled the change."""
        _cluster, fleet, conns = build(num_switches=3, horizon=30.0)
        tables = [slot.switch.conn_table for slot in fleet._slots]
        if profile_cache_size is not None:
            for table in tables:
                table.profile_cache_size = profile_cache_size
        window = [c for c in conns if c.start >= 10.0][:256]
        down_at = window[128].start - 1e-9
        predicted = {}
        if batched:
            sim = BatchedFlowSimulator(fleet, batch_size=256)
            prepare = fleet.prepare_batch

            def spying_prepare(chunk):
                for c in chunk:
                    owner = fleet._tables[c.vip].lookup(c.key, c.key_hash)
                    predicted[c.key] = owner.index
                prepare(chunk)

            fleet.prepare_batch = spying_prepare
        else:
            sim = FlowSimulator(fleet)
        sim.queue.schedule(down_at, lambda: fleet.declare_down(1), 1)
        sim.run(conns, horizon_s=30.0)
        outcome = {
            "fingerprint": fleet.fingerprint(),
            "audit": audit_fleet(fleet, conns).fingerprint(),
            "decisions": [c.decisions for c in conns],
        }
        mispredicted = [
            c for c in conns if c.start > down_at and predicted.get(c.key) == 1
        ]
        evictions = sum(table.profile_cache_evictions for table in tables)
        return outcome, mispredicted, evictions

    def test_declare_down_between_priming_and_arrival(self):
        scalar, _none, _evictions = self._run_with_declare_down(batched=False)
        batched, mispredicted, _evictions = self._run_with_declare_down(batched=True)
        # Arrivals after the change had been primed on switch 1, which no
        # longer owns anything; they were served by the survivors anyway.
        assert mispredicted
        assert all(c.decisions[0][1] is not None for c in mispredicted)
        assert batched == scalar

    def test_results_independent_of_profile_cache_evictions(self):
        # An 8-entry profile cache evicts most of a 256-arrival window's
        # primed profiles before they are used; those arrivals fall back to
        # the scalar derivation and nothing observable moves.
        roomy, _m, roomy_evictions = self._run_with_declare_down(batched=True)
        tight, _m, tight_evictions = self._run_with_declare_down(
            batched=True, profile_cache_size=8
        )
        assert tight_evictions > roomy_evictions
        assert tight == roomy
