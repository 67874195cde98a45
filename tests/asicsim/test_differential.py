"""Differential tests: the batched driver is bit-identical to the scalar oracle.

The batched driver (:class:`~repro.netsim.batchsim.BatchedFlowSimulator`)
keeps the static arrival/end/update streams off the event heap, primes
key hashes and cuckoo profiles in vectorized windows, and dispatches
arrivals in chunks; every arrival still runs the one
``SilkRoadSwitch.on_connection_arrival`` walk.  The scalar
:class:`~repro.netsim.simulator.FlowSimulator` stays untouched as the
*oracle*: every workload replayed through both must produce

* equal :class:`~repro.obs.metrics.MetricRegistry` fingerprints,
* equal ConnTable contents (every resident slot, including its physical
  (stage, bucket, way) position — cuckoo move history must match too),
* equal :func:`~repro.core.verify.audit_switch` reports, and
* equal simulation reports.

Divergence in any of these means the intra-batch ordering rule
(docs/architecture.md) was broken somewhere.  A seeded property-style
fuzz sweeps random workload shapes, update schedules, fault injection
on/off, and the batch sizes {1, 7, 64, 1024} (1 exercises the chunking
degenerate case, 7 misaligned chunks, 1024 chunks larger than most
inter-end gaps).  One case arms the flight recorder and the timeline
sampler, whose hooks sit inside the arrival walk and on the heap.

The seeded runners take no driver choice; their chaos cases run the real
``run_chaos`` on each driver through :func:`tests.scalar_oracle.oracle_driver`.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core import SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.experiments.common import build_workload, silkroad_factory
from repro.faults.chaos import chaos_config, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.netsim.batchsim import BatchedFlowSimulator
from repro.netsim.simulator import FlowSimulator
from repro.options import ObsOptions

from ..scalar_oracle import oracle_driver

BATCH_SIZES = (1, 7, 64, 1024)


def _conn_table_snapshot(switch: SilkRoadSwitch):
    """Every resident slot with its physical location and stored fields."""
    return list(switch.conn_table.entries())


def _observe(report, conns, switch):
    """The full comparable outcome of one replay."""
    audit = audit_switch(switch, connections=conns)
    return {
        "fingerprint": switch.metrics.fingerprint(),
        "conn_table": _conn_table_snapshot(switch),
        "audit": str(audit),
        "pcc_violations": report.pcc_violations,
        "dropped": sum(1 for c in conns if c.start >= 0.0 and c.ever_dropped),
        "measured": report.measured_connections,
        "metrics": switch.metrics.snapshot(),
    }


def _replay(workload, *, batched, batch_size=256, fault_seed=None):
    """One fresh replay of ``workload``; fresh injector per run (stateful)."""
    faults = None
    if fault_seed is not None:
        plan = FaultPlan.generate(
            fault_seed, horizon_s=workload.horizon_s, faults_per_min=30.0
        )
        faults = FaultInjector(plan)
        factory = lambda: SilkRoadSwitch(chaos_config(), name="silkroad-diff")
    else:
        factory = silkroad_factory(
            insertion_rate_per_s=20_000.0, conn_table_capacity=50_000
        )
    report, conns, lb = workload.replay(
        factory, faults=faults, batched=batched, batch_size=batch_size
    )
    return _observe(report, conns, lb)


def _assert_identical(scalar, batched, label: str) -> None:
    assert batched["fingerprint"] == scalar["fingerprint"], (
        f"{label}: metric fingerprints diverged"
    )
    assert batched["conn_table"] == scalar["conn_table"], (
        f"{label}: ConnTable contents diverged"
    )
    assert batched["audit"] == scalar["audit"], f"{label}: audit reports diverged"
    assert batched == scalar, f"{label}: simulation reports diverged"


# ----------------------------------------------------------------------
# The ISSUE-named replay: one workload, every batch size, both drivers.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batched_matches_scalar_oracle(batch_size):
    workload = build_workload(
        updates_per_min=20.0, scale=0.05, seed=42, horizon_s=30.0, warmup_s=5.0
    )
    scalar = _replay(workload, batched=False)
    batched = _replay(workload, batched=True, batch_size=batch_size)
    _assert_identical(scalar, batched, f"batch_size={batch_size}")


def _assert_chaos_identical(scalar, batched) -> None:
    assert batched.fingerprint == scalar.fingerprint
    assert str(batched.audit) == str(scalar.audit)
    assert _conn_table_snapshot(batched.switch) == _conn_table_snapshot(
        scalar.switch
    )
    assert batched.report.pcc_violations == scalar.report.pcc_violations
    assert batched.overdue_updates == scalar.overdue_updates


def test_batched_matches_scalar_under_faults():
    """Chaos runs: faults hit mid-chunk and the interleaving must still
    match.  ``dict(seed=7)`` is ``repro chaos --seed 7``."""
    for knobs in (dict(seed=11, scale=0.04, horizon_s=15.0), dict(seed=7)):
        with oracle_driver():
            scalar = run_chaos(**knobs)
        batched = run_chaos(**knobs)
        assert batched.audit.ok, (knobs, str(batched.audit))
        _assert_chaos_identical(scalar, batched)


@pytest.mark.parametrize("batch_size", (1, 64))
def test_recorder_armed_batched_matches_scalar(batch_size):
    """Recorder + timeline armed: same events, same samples, both drivers."""
    obs = ObsOptions(record=True, timeline_period_s=1.0)
    kwargs = dict(seed=13, scale=0.04, horizon_s=12.0, obs=obs)
    with oracle_driver():
        scalar = run_chaos(**kwargs)
    with oracle_driver(batched=True, batch_size=batch_size):
        batched = run_chaos(**kwargs)
    assert batched.fingerprint == scalar.fingerprint
    assert batched.timeline.fingerprint() == scalar.timeline.fingerprint()
    assert batched.recorder.summary() == scalar.recorder.summary()
    assert batched.recorder.to_dicts() == scalar.recorder.to_dicts()
    assert scalar.recorder.recorded.get("conn", 0) > 0
    assert len(scalar.timeline) > 0


# ----------------------------------------------------------------------
# The resumable loop: fed in windows, it keeps the scalar kernel's
# "cannot schedule in the past" check.
# ----------------------------------------------------------------------


def test_resumed_loop_rejects_events_before_the_clock():
    workload = build_workload(
        updates_per_min=30.0, scale=0.02, seed=5, horizon_s=8.0, warmup_s=0.0
    )
    switch = silkroad_factory()()
    for service in workload.cluster.services:
        switch.announce_vip(service.vip, service.dips)
    sim = BatchedFlowSimulator(switch)
    sim.start()
    conns = workload.connections.records()
    early = [c for c in conns if c.start < 4.0]
    late = [c for c in conns if c.start >= 4.0]
    assert early and late and workload.updates
    sim.feed(early)
    sim.run_until(4.0)
    assert sim.queue.now == 4.0
    update = workload.updates[0]
    with pytest.raises(ValueError, match="in the past"):
        sim.feed(early[-1:])
    with pytest.raises(ValueError, match="in the past"):
        sim.feed([], [replace(update, time=3.5)])
    sim.feed(late, [replace(update, time=4.0)])  # at the clock is not the past
    sim.run_until(workload.horizon_s)


def test_run_rejects_negative_update_times():
    workload = build_workload(
        updates_per_min=30.0, scale=0.02, seed=5, horizon_s=8.0, warmup_s=1.0
    )
    early = replace(workload.updates[0], time=-0.5)
    for sim in (
        FlowSimulator(silkroad_factory()()),
        BatchedFlowSimulator(silkroad_factory()()),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(workload.connections.records(), [early])


# ----------------------------------------------------------------------
# Property-style fuzz: random workload shapes, schedules, faults on/off.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(8))
def test_fuzz_differential(case):
    """Seeded random (workload, schedule, faults, batch size) quadruples.

    Everything derives from ``case`` through one ``random.Random`` so a
    failure reproduces exactly; the parameters deliberately include
    update-free runs (no TransitTable traffic), dense update schedules
    (chunks constantly cut by updates), and fault injection (CPU crashes
    landing inside chunks).
    """
    rnd = random.Random(0xD1FF + case)
    seed = rnd.randrange(1 << 16)
    num_vips = rnd.randint(2, 5)
    updates_per_min = rnd.choice([0.0, 15.0, 90.0])
    horizon_s = rnd.uniform(8.0, 18.0)
    scale = rnd.uniform(0.02, 0.06)
    fault_seed = rnd.randrange(1 << 16) if rnd.random() < 0.5 else None
    batch_size = rnd.choice(BATCH_SIZES)

    workload = build_workload(
        updates_per_min=updates_per_min,
        scale=scale,
        seed=seed,
        horizon_s=horizon_s,
        warmup_s=2.0,
        num_vips=num_vips,
    )
    label = (
        f"case={case} seed={seed} vips={num_vips} upd={updates_per_min} "
        f"faults={fault_seed} batch={batch_size}"
    )
    scalar = _replay(workload, batched=False, fault_seed=fault_seed)
    batched = _replay(
        workload, batched=True, batch_size=batch_size, fault_seed=fault_seed
    )
    _assert_identical(scalar, batched, label)
