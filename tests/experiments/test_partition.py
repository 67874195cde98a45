"""Tests for the space-partitioned fleet runner.

The ISSUE's property: `run_fleet_partitioned` splits ONE `FleetSilkRoad`
run across workers that own disjoint switch partitions, exchange epoch
digests at lockstep barriers, and merge to results that are bit-identical
to the serial run for every worker count.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import (
    FleetPartitionedResult,
    partition_switches,
    run_fleet_partitioned,
)
from repro.options import ObsOptions
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.fleet import run_fleet

#: A fault-heavy slice: crashes plus reassignments on a replicated fleet,
#: small enough to replay three times in a few seconds.
RUN_PARAMS = dict(
    seed=5,
    pattern="crash",
    num_switches=4,
    scale=0.05,
    horizon_s=20.0,
    warmup_s=2.0,
    faults_per_min=8.0,
    replication=2,
)


class TestPartitionLayout:
    def test_layout_is_deterministic(self):
        assert partition_switches(8, 3) == partition_switches(8, 3)

    def test_switches_partition_exactly(self):
        owned = partition_switches(7, 3)
        flat = [i for part in owned for i in part]
        assert flat == list(range(7))
        sizes = [len(part) for part in owned]
        assert max(sizes) - min(sizes) <= 1

    def test_single_worker_owns_everything(self):
        assert partition_switches(4, 1) == [(0, 1, 2, 3)]

    def test_rejects_more_workers_than_switches(self):
        with pytest.raises(ValueError):
            partition_switches(2, 3)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition_switches(2, 0)


class TestFingerprintInvariance:
    """Worker count must not move any merged artifact."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            workers: run_fleet_partitioned(
                partition_workers=workers, in_process=True, **RUN_PARAMS
            )
            for workers in (1, 2, 4)
        }

    def test_registry_fingerprint_identical_across_1_2_4_workers(self, results):
        fingerprints = {r.fingerprint for r in results.values()}
        assert len(fingerprints) == 1

    def test_audit_fingerprint_identical_across_1_2_4_workers(self, results):
        assert len({r.audit_fingerprint for r in results.values()}) == 1
        assert all(r.ok for r in results.values())

    def test_survival_identical_across_1_2_4_workers(self, results):
        assert results[1].survival == results[2].survival == results[4].survival
        assert results[1].survival["measured"] > 0

    def test_counters_identical_across_1_2_4_workers(self, results):
        assert results[1].counters == results[2].counters == results[4].counters
        assert results[1].counters["crashes"] > 0

    def test_partition_layout_is_reported(self, results):
        assert results[4].workers == 4
        assert results[4].partitions == [(0,), (1,), (2,), (3,)]
        assert results[1].partitions == [(0, 1, 2, 3)]

    def test_epoch_schedule_matches_config(self, results):
        # min(heartbeat 0.25, announce 0.05, drain 0.5) = 0.05s epochs
        # over a 20s horizon.
        for r in results.values():
            assert r.epoch_length_s == pytest.approx(0.05)
            assert r.epochs == 400


class TestSerialEquivalence:
    """The partitioned merge equals the unpartitioned `run_fleet` exactly —
    partitioning is an execution strategy, not a different experiment."""

    def test_partitioned_equals_serial_run_fleet(self):
        serial = run_fleet(**RUN_PARAMS)
        partitioned = run_fleet_partitioned(
            partition_workers=2, in_process=True, **RUN_PARAMS
        )
        assert partitioned.fingerprint == serial.fingerprint
        assert partitioned.audit_fingerprint == serial.audit.fingerprint()
        assert partitioned.survival == serial.survival

    def test_different_seed_moves_fingerprint(self):
        a = run_fleet_partitioned(
            partition_workers=2, in_process=True, **RUN_PARAMS
        )
        b = run_fleet_partitioned(
            partition_workers=2, in_process=True, **dict(RUN_PARAMS, seed=6)
        )
        assert a.fingerprint != b.fingerprint


class TestSpawnedWorkers:
    """The spawn pool (real processes, pipe barriers) merges to the same
    artifacts as the sequential in-process replay."""

    def test_spawned_pool_equals_in_process(self):
        params = dict(RUN_PARAMS, horizon_s=10.0, faults_per_min=6.0)
        in_proc = run_fleet_partitioned(
            partition_workers=2, in_process=True, **params
        )
        spawned = run_fleet_partitioned(
            partition_workers=2, in_process=False, **params
        )
        assert spawned.fingerprint == in_proc.fingerprint
        assert spawned.audit_fingerprint == in_proc.audit_fingerprint
        assert spawned.survival == in_proc.survival
        assert spawned.counters == in_proc.counters


class TestObservabilityInvariance:
    """Timeline and FlightRecorder merges are worker-count-invariant too:
    fleet-scope instruments live on the primary replica only, per-switch
    instruments and recorders on the owner only."""

    OBS_PARAMS = dict(
        RUN_PARAMS, obs=ObsOptions(record=True, timeline_period_s=1.0)
    )

    @pytest.fixture(scope="class")
    def results(self):
        return {
            workers: run_fleet_partitioned(
                partition_workers=workers, in_process=True, **self.OBS_PARAMS
            )
            for workers in (1, 2, 4)
        }

    def test_timeline_fingerprint_identical(self, results):
        fingerprints = {r.timeline_fingerprint for r in results.values()}
        assert len(fingerprints) == 1 and None not in fingerprints

    def test_recorder_merge_identical(self, results):
        dumps = {w: r.recorder.to_dicts() for w, r in results.items()}
        assert len(dumps[1]) > 0
        assert dumps[1] == dumps[2] == dumps[4]

    def test_recorder_sources_are_disjointly_owned(self, results):
        # Fleet-scope events come from the primary replica's "fleet"
        # recorder; per-switch events from the owning replica's "sw<i>".
        sources = {e.source for e in results[4].recorder.events()}
        assert sources <= {"fleet"} | {f"sw{i}" for i in range(4)}
        assert len(sources - {"fleet"}) >= 2
        times = [e.t for e in results[4].recorder.events()]
        assert times == sorted(times)

    def test_disabled_by_default(self):
        result = run_fleet_partitioned(
            partition_workers=2, in_process=True, **RUN_PARAMS
        )
        assert result.timeline is None
        assert result.recorder is None
        assert result.timeline_fingerprint is None


class TestResumeUnderPartition:
    """A false-detected switch keeps its ConnTable; flows re-homed back
    after the rejoin must hit `resume_connection` (pinned version, no new
    insert) on every worker count — the re-homed flow's pinning survives
    partitioned execution."""

    #: Three lost heartbeats at t=5 trip the suspicion threshold (3) with
    #: the data plane up: a false detection followed by a quick rejoin —
    #: quick enough that the quiesced ConnTable entries (idle timeout 1s)
    #: are still live when flows re-home back.
    RESUME_PLAN = FaultPlan(
        events=(
            FaultEvent(
                time=5.0,
                kind=FaultKind.HEARTBEAT_LOSS,
                switch=1,
                count=3,
            ),
        ),
        seed=0,
    )

    RESUME_PARAMS = dict(
        seed=11,
        pattern="mixed",
        num_switches=2,
        scale=0.05,
        horizon_s=20.0,
        warmup_s=2.0,
        obs=ObsOptions(record=True),
    )

    @pytest.fixture(scope="class")
    def results(self):
        return {
            workers: run_fleet_partitioned(
                partition_workers=workers,
                in_process=True,
                plan=self.RESUME_PLAN,
                **self.RESUME_PARAMS,
            )
            for workers in (1, 2)
        }

    def test_false_detection_and_rejoin_happen(self, results):
        for r in results.values():
            assert r.counters["false_detections"] >= 1
            assert r.counters["rejoins"] >= 1

    def test_flows_resume_on_the_rejoined_switch(self, results):
        resumes = {
            w: [e for e in r.recorder.events() if e.name == "resume"]
            for w, r in results.items()
        }
        assert len(resumes[1]) > 0
        # Every resume keeps the flow's pinned version on the rejoined
        # switch, and the partitioned replay sees the identical stream.
        assert [e.to_dict() for e in resumes[1]] == [
            e.to_dict() for e in resumes[2]
        ]
        assert all(e.source == "sw1" for e in resumes[1])

    def test_fingerprints_match_across_worker_counts(self, results):
        assert results[1].fingerprint == results[2].fingerprint
        assert results[1].audit_fingerprint == results[2].audit_fingerprint
        assert results[1].ok and results[2].ok
