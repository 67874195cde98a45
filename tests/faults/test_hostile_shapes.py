"""Hostile shapes: under any fault the slow path stays cheap and loud.

Each shape is one replay of the same PoP workload (``build_workload(...,
scale=0.5, seed=16, horizon_s=10, warmup_s=5)``, 3,729 connections) on a
switch or a 4-switch fleet that is hostile in one way: a config at an
extreme (a 2-bit version ring under 3,000 updates/min, a 1 ms step
deadline, a 4-bit digest, a 500-entry ConnTable, an 8 B TransitTable) or a
fault of each :class:`~repro.faults.FaultKind`.  Every shape must

* schedule at most four events per connection (the event-counting
  harness of ``test_slow_path_recovery.py``, which stops a storm in
  seconds);
* allocate at most :data:`BYTES_PER_CONNECTION` of peak traced memory
  per connection;
* audit clean with no unattributed violation or drop;
* move the instrument it names, so the degradation it causes is *loud*;
* break PCC only for the cause it names: every violation carries it, and
  a shape that names none breaks nothing.
"""

from __future__ import annotations

import functools
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.deploy.fleet import FleetSilkRoad, audit_fleet
from repro.experiments.common import build_workload
from repro.faults import FLEET_KINDS, SWITCH_KINDS, FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs.causes import AT_RISK, BLACKHOLE, FP_ADOPTED, OVERFLOW, REHASH, AttributionRule

from .test_slow_path_recovery import EVENTS_PER_CONNECTION, _count_events

#: Peak traced bytes a replay may allocate per connection: a clean replay
#: of this workload peaks at ~750, the hungriest shape here (a full
#: 500-entry table, whose broken connections stay on the slow path) at
#: ~1,360.
BYTES_PER_CONNECTION = 2_000
FLEET_SWITCHES = 4


@dataclass(frozen=True)
class Shape:
    """One hostile replay: ``config`` (``SilkRoadConfig`` fields), the
    workload's update rate, the faults injected, the registry instrument
    (``fleet.report()`` counter for a fleet) that must move, and the
    causes every PCC violation must carry one of (none: no violation)."""

    name: str
    instrument: str
    causes: Tuple[str, ...] = ()
    config: Dict[str, object] = field(default_factory=dict)
    updates_per_min: float = 10.0
    faults: Tuple[FaultEvent, ...] = ()
    fleet: bool = False
    #: switches announcing each VIP (``None``: every switch of the fleet).
    replication: Optional[int] = None


def _at(kind: FaultKind, **fields) -> Tuple[FaultEvent, ...]:
    return (FaultEvent(time=7.0, kind=kind, **fields),)


#: The nine shapes the PR 40 re-anchor probed: a 3,000 updates/min storm
#: on a 2-bit version ring (with and without reuse) at a 300/s CPU and a
#: 2 ms step deadline, then that CPU alone and with that deadline, a 1 ms
#: deadline at 200 installs/s, a 4-bit digest on a 6 K-entry table, a
#: 500-entry table with and without software overflow, and an 8 B
#: TransitTable at a 5 ms filter timeout.  The sizes are that probe's.
STORM = dict(insertion_rate_per_s=300.0, update_step_deadline_s=2e-3)
CONFIG_SHAPES = [
    Shape("ring2_reuse_3000upm", "switch.version_exhaustion_events", causes=(AT_RISK,),
          config=dict(version_bits=2, **STORM), updates_per_min=3000.0),
    Shape("ring2_no_reuse_3000upm", "switch.version_exhaustion_events", causes=(AT_RISK,),
          config=dict(version_bits=2, version_reuse=False, **STORM),
          updates_per_min=3000.0),
    Shape("cpu300_3000upm", "update.updates_queued_total",
          config=dict(insertion_rate_per_s=300.0), updates_per_min=3000.0),
    Shape("deadline2ms_cpu300_3000upm", "update.watchdog_forced_steps_total",
          causes=(AT_RISK,), config=STORM, updates_per_min=3000.0),
    Shape("deadline1ms_cpu200", "switch.at_risk_connections", causes=(AT_RISK,),
          config=dict(update_step_deadline_s=1e-3, insertion_rate_per_s=200.0),
          updates_per_min=600.0),
    Shape("digest4_table6k", "conn_table.lookup_false_positives_total", causes=(OVERFLOW,),
          config=dict(digest_bits=4, conn_table_capacity=6000)),
    Shape("table500_overflow_to_software", "switch.overflow_pinned",
          config=dict(conn_table_capacity=500, overflow_to_software=True)),
    Shape("table500", "switch.table_full_events", causes=(OVERFLOW,),
          config=dict(conn_table_capacity=500), updates_per_min=600.0),
    Shape("transit8B_filter5ms", "switch.transit_fp_adopted", causes=(FP_ADOPTED,),
          config=dict(transit_table_bytes=8, learning_filter_timeout_s=5e-3,
                      insertion_rate_per_s=300.0),
          updates_per_min=3000.0),
    # And one more: residents of a full table share 3-bit digests, so the
    # cuckoo BFS moves entries under shared triples, where a move that is
    # not judged against the table as it then stands shadows a resident.
    Shape("digest3_table500", "conn_table.cuckoo_moves_total", causes=(OVERFLOW,),
          config=dict(digest_bits=3, conn_table_capacity=500)),
]

#: One shape per fault kind; the fleet kinds hit a 4-switch fleet.
FAULT_SHAPES = [
    Shape("cpu_crash", "switch_cpu.jobs_lost_total",
          faults=_at(FaultKind.CPU_CRASH, duration_s=2.0)),
    Shape("cpu_stall", "switch_cpu.stalls_total",
          faults=_at(FaultKind.CPU_STALL, duration_s=0.5)),
    # The fault plan's widest, likeliest write-fault window (DRAWS).
    Shape("install_fail_window", "switch_cpu.install_failures_total",
          faults=_at(FaultKind.INSTALL_FAIL_WINDOW, duration_s=1e-2, probability=0.9)),
    # A window far past the plan's draws that fails every write: a key is
    # re-learned after an acknowledged install or a backoff that doubles
    # to 160 ms, so the window costs a key one re-learn per backoff, not
    # one per filter timeout.
    Shape("install_fail_window_long", "switch_cpu.install_failures_total",
          faults=_at(FaultKind.INSTALL_FAIL_WINDOW, duration_s=1.0, probability=1.0)),
    Shape("notification_loss", "slow_path.notifications_lost_total",
          faults=_at(FaultKind.NOTIFICATION_LOSS, count=50)),
    Shape("batch_delay", "slow_path.notifications_delayed_total",
          faults=_at(FaultKind.BATCH_DELAY, count=50, delay_s=0.2)),
    Shape("switch_crash", "crashes", causes=(REHASH, BLACKHOLE), fleet=True,
          faults=_at(FaultKind.SWITCH_CRASH, switch=1, duration_s=2.0)),
    Shape("switch_partition", "partitions", causes=(REHASH, BLACKHOLE), fleet=True,
          faults=_at(FaultKind.SWITCH_PARTITION, switch=1, duration_s=2.0)),
    Shape("switch_flap", "crashes", causes=(REHASH, BLACKHOLE), fleet=True,
          faults=_at(FaultKind.SWITCH_FLAP, switch=1, duration_s=0.5, cycles=3)),
    Shape("heartbeat_loss", "false_detections", causes=(REHASH, BLACKHOLE), fleet=True,
          faults=_at(FaultKind.HEARTBEAT_LOSS, switch=1, count=8)),
    Shape("detection_delay", "detections", causes=(REHASH, BLACKHOLE), fleet=True,
          faults=_at(FaultKind.DETECTION_DELAY, duration_s=2.0)
          + (FaultEvent(time=7.5, kind=FaultKind.SWITCH_CRASH, switch=1, duration_s=4.0),)),
    # At full replication every switch announces every VIP already.
    Shape("vip_reassign", "reassignments_completed", fleet=True, replication=2,
          faults=_at(FaultKind.VIP_REASSIGN, vip_rank=0, target=2)),
]

SHAPES = CONFIG_SHAPES + FAULT_SHAPES


def test_every_fault_kind_has_a_shape():
    kinds = {event.kind for shape in FAULT_SHAPES for event in shape.faults}
    assert kinds == set(FaultKind)
    fleet = {event.kind for shape in FAULT_SHAPES if shape.fleet for event in shape.faults}
    assert fleet <= set(FLEET_KINDS) and not fleet & set(SWITCH_KINDS)


@functools.lru_cache(maxsize=None)
def _workload(updates_per_min: float):
    return build_workload(
        updates_per_min, scale=0.5, seed=16, horizon_s=10.0, warmup_s=5.0
    )


def _replay(shape: Shape):
    """The shape's replay under tracemalloc: ``(conns, lb, peak bytes)``."""
    workload = _workload(shape.updates_per_min)
    config = SilkRoadConfig(**shape.config)
    if shape.fleet:
        factory = lambda: FleetSilkRoad(  # noqa: E731
            num_switches=FLEET_SWITCHES, config=config, replication=shape.replication
        )
    else:
        factory = lambda: SilkRoadSwitch(config)  # noqa: E731
    injector = FaultInjector(FaultPlan(events=shape.faults)) if shape.faults else None
    tracemalloc.start()
    try:
        _report, conns, lb = workload.replay(factory, faults=injector)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return conns, lb, peak


@pytest.mark.parametrize("shape", SHAPES, ids=[s.name for s in SHAPES])
def test_hostile_shape_stays_cheap_and_loud(monkeypatch, shape):
    limit = EVENTS_PER_CONNECTION * len(_workload(shape.updates_per_min).connections)
    count = _count_events(monkeypatch, limit)
    conns, lb, peak = _replay(shape)
    assert count[0] <= limit
    assert peak / len(conns) <= BYTES_PER_CONNECTION, peak / len(conns)
    violated = [c for c in conns if c.pcc_violated]
    if shape.fleet:
        audit = audit_fleet(lb, conns)
        assert audit.ok, str(audit)
        assert audit.unattributed_violations == audit.unattributed_drops == 0
        assert lb.report()[shape.instrument] > 0
        carried = [set(name.split("+")) for name in audit.violation_causes.elements()]
    else:
        audit = audit_switch(lb, connections=conns)
        assert audit.ok, str(audit)
        assert audit.unattributed_violations == 0
        assert lb.metrics.snapshot()[shape.instrument] > 0
        rule = AttributionRule.for_switch(lb)
        carried = [set(rule.violation(c.key)) for c in violated]
    assert len(carried) == len(violated)
    assert all(causes & set(shape.causes) for causes in carried), carried
