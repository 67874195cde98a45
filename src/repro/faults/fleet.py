"""Fleet-level fault plans and the seeded fleet-chaos harness.

:mod:`repro.faults.plan` degrades one switch's slow path; this module
degrades the *fleet*: whole-switch crashes and reboots, control-plane
partitions, flapping, lost heartbeat probes (false-positive detections),
delayed detection, and operator-style VIP reassignments.  Plans follow the
same contract — frozen, seed-derived data, injection happens elsewhere —
so a plan can be embedded in a test or swept over by the experiment
runner.

:func:`run_fleet` is the one-call harness behind the ``repro fleet`` CLI
command and the fleet-chaos CI smoke: build a workload, generate a plan
for one of the :data:`FAILURE_PATTERNS`, replay against a
:class:`~repro.deploy.fleet.FleetSilkRoad`, then

* :func:`~repro.deploy.fleet.audit_fleet` — every structural invariant on
  every switch instance the run ever booted, plus fleet-level attribution
  of every PCC violation and drop (the unattributed bucket must be empty);
* a **survival count** over the measured connections: kept vs. broken
  (PCC violated) vs. blackholed (dropped packets but a single DIP);
* the merged fleet registry fingerprint, bit-identical for equal seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SilkRoadConfig
from ..deploy.fleet import FleetConfig, FleetSilkRoad, FleetAuditReport, audit_fleet
from ..experiments.common import PccWorkload, build_workload
from ..netsim import Connection, SimulationReport
from ..netsim.simulator import PRIO_INTERNAL
from ..obs import FlightRecorder, ObsHook, Timeline
from ..obs.events import (
    FAULT_DETECTION_DELAY,
    FAULT_HEARTBEAT_LOSS,
    FAULT_SWITCH_CRASH,
    FAULT_SWITCH_FLAP,
    FAULT_SWITCH_PARTITION,
    FAULT_VIP_REASSIGN,
)
from ..options import DriverOptions, ObsOptions


class FleetFaultKind(Enum):
    """The fleet-scale failure modes the control plane defends against."""

    #: the switch silently dies; reboots (empty tables) after ``duration_s``.
    SWITCH_CRASH = "switch_crash"
    #: control plane severed for ``duration_s``: probes and updates stop
    #: reaching the switch while its data plane keeps forwarding.
    SWITCH_PARTITION = "switch_partition"
    #: ``cycles`` rapid crash/reboot cycles of ``duration_s`` each.
    SWITCH_FLAP = "switch_flap"
    #: the next ``count`` heartbeat probes to the switch are lost in
    #: transit (exercises false-positive detection).
    HEARTBEAT_LOSS = "heartbeat_loss"
    #: the controller stalls for ``duration_s`` (leader election, overload)
    #: — failures during the stall stay undetected.
    DETECTION_DELAY = "detection_delay"
    #: operator drains a VIP onto another switch (3-step reassignment).
    VIP_REASSIGN = "vip_reassign"


#: The flight-recorder event each fleet fault kind is delivered as.
_FAULT_EVENT = {
    FleetFaultKind.SWITCH_CRASH: FAULT_SWITCH_CRASH,
    FleetFaultKind.SWITCH_PARTITION: FAULT_SWITCH_PARTITION,
    FleetFaultKind.SWITCH_FLAP: FAULT_SWITCH_FLAP,
    FleetFaultKind.HEARTBEAT_LOSS: FAULT_HEARTBEAT_LOSS,
    FleetFaultKind.DETECTION_DELAY: FAULT_DETECTION_DELAY,
    FleetFaultKind.VIP_REASSIGN: FAULT_VIP_REASSIGN,
}


@dataclass(frozen=True)
class FleetFaultEvent:
    """One scheduled fleet fault.  Which fields matter depends on ``kind``."""

    time: float
    kind: FleetFaultKind
    #: the switch index the fault hits (crash/partition/flap/loss).
    switch: int = 0
    #: restart delay / partition length / flap cycle length / stall length.
    duration_s: float = 0.0
    #: probes eaten by a heartbeat loss.
    count: int = 1
    #: crash/reboot cycles of a flap.
    cycles: int = 1
    #: reassignment target switch index.
    target: int = 0
    #: reassignment VIP, as a rank into the fleet's announce order.
    vip_rank: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.switch < 0:
            raise ValueError("switch index must be non-negative")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.target < 0:
            raise ValueError("target index must be non-negative")
        if self.vip_rank < 0:
            raise ValueError("vip_rank must be non-negative")


#: Default mix when generating a random fleet plan (uniform over kinds).
FLEET_KINDS: Tuple[FleetFaultKind, ...] = tuple(FleetFaultKind)


@dataclass(frozen=True)
class FleetFaultPlan:
    """A frozen schedule of fleet fault events, sorted by time."""

    events: Tuple[FleetFaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kinds(self) -> Tuple[FleetFaultKind, ...]:
        return tuple(e.kind for e in self.events)

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        num_switches: int,
        faults_per_min: float = 4.0,
        kinds: Sequence[FleetFaultKind] = FLEET_KINDS,
        crash_restart_s: Tuple[float, float] = (1.0, 4.0),
        partition_s: Tuple[float, float] = (1.0, 3.0),
        flap_cycle_s: Tuple[float, float] = (0.2, 0.6),
        flap_cycles: Tuple[int, int] = (2, 4),
        loss_count: Tuple[int, int] = (1, 4),
        detection_delay_s: Tuple[float, float] = (0.5, 2.0),
    ) -> "FleetFaultPlan":
        """Draw a deterministic schedule from ``seed``.

        Same shape as :meth:`repro.faults.plan.FaultPlan.generate`: event
        count is ``round(faults_per_min * horizon_s / 60)`` (at least one
        for a positive rate), times uniform over ``(0, horizon_s)``,
        magnitudes uniform over the given ranges.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if num_switches <= 0:
            raise ValueError("num_switches must be positive")
        if faults_per_min < 0:
            raise ValueError("faults_per_min must be non-negative")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        rng = random.Random(seed)
        n = int(round(faults_per_min * horizon_s / 60.0))
        if faults_per_min > 0:
            n = max(n, 1)
        events: List[FleetFaultEvent] = []
        for _ in range(n):
            time = rng.uniform(0.0, horizon_s)
            kind = rng.choice(list(kinds))
            switch = rng.randrange(num_switches)
            if kind is FleetFaultKind.SWITCH_CRASH:
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        switch=switch,
                        duration_s=rng.uniform(*crash_restart_s),
                    )
                )
            elif kind is FleetFaultKind.SWITCH_PARTITION:
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        switch=switch,
                        duration_s=rng.uniform(*partition_s),
                    )
                )
            elif kind is FleetFaultKind.SWITCH_FLAP:
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        switch=switch,
                        duration_s=rng.uniform(*flap_cycle_s),
                        cycles=rng.randint(*flap_cycles),
                    )
                )
            elif kind is FleetFaultKind.HEARTBEAT_LOSS:
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        switch=switch,
                        count=rng.randint(*loss_count),
                    )
                )
            elif kind is FleetFaultKind.DETECTION_DELAY:
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        duration_s=rng.uniform(*detection_delay_s),
                    )
                )
            else:  # VIP_REASSIGN
                events.append(
                    FleetFaultEvent(
                        time=time,
                        kind=kind,
                        vip_rank=rng.randrange(64),
                        target=rng.randrange(num_switches),
                    )
                )
        return cls(events=tuple(events), seed=seed)


class FleetFaultInjector:
    """Schedules a :class:`FleetFaultPlan` against a bound fleet.

    Mirrors :class:`repro.faults.injector.FaultInjector`: ``attach`` is
    called by the replay harness once the fleet is bound; each event fires
    at ``max(event.time, now)`` with internal priority, records itself to
    the fleet's flight recorder (when attached), then pokes the fleet's
    fault surface.
    """

    def __init__(self, plan: FleetFaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[FleetFaultKind, int] = {}

    def attach(self, fleet: FleetSilkRoad, queue) -> None:
        for event in self.plan:
            queue.schedule(
                max(event.time, queue.now),
                lambda e=event: self._deliver(fleet, e),
                PRIO_INTERNAL,
            )

    def _deliver(self, fleet: FleetSilkRoad, event: FleetFaultEvent) -> None:
        self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
        recorder = getattr(fleet, "recorder", None)
        if recorder is not None:
            recorder.record(
                fleet.queue.now,
                _FAULT_EVENT[event.kind],
                None,
                event.switch,
                event.duration_s,
            )
        kind = event.kind
        if kind is FleetFaultKind.SWITCH_CRASH:
            fleet.inject_switch_crash(event.switch, restart_after_s=event.duration_s)
        elif kind is FleetFaultKind.SWITCH_PARTITION:
            fleet.inject_partition(event.switch, heal_after_s=event.duration_s)
        elif kind is FleetFaultKind.SWITCH_FLAP:
            self._flap(fleet, event.switch, event.duration_s, event.cycles)
        elif kind is FleetFaultKind.HEARTBEAT_LOSS:
            fleet.inject_heartbeat_loss(event.switch, event.count)
        elif kind is FleetFaultKind.DETECTION_DELAY:
            fleet.controller.stall(event.duration_s)
        else:  # VIP_REASSIGN
            fleet.request_reassign(event.vip_rank, event.target)

    def _flap(
        self, fleet: FleetSilkRoad, switch: int, cycle_s: float, cycles: int
    ) -> None:
        """One crash/reboot cycle now; the rest self-reschedule."""
        fleet.inject_switch_crash(switch, restart_after_s=cycle_s * 0.5)
        if cycles > 1:
            fleet.queue.schedule(
                fleet.queue.now + cycle_s,
                lambda: self._flap(fleet, switch, cycle_s, cycles - 1),
                PRIO_INTERNAL,
            )


#: Named failure patterns the survival table sweeps over.  Each maps to
#: the kind mix (and overrides) handed to :meth:`FleetFaultPlan.generate`.
FAILURE_PATTERNS: Dict[str, Dict[str, object]] = {
    "crash": {"kinds": (FleetFaultKind.SWITCH_CRASH,)},
    "partition": {"kinds": (FleetFaultKind.SWITCH_PARTITION,)},
    "flap": {"kinds": (FleetFaultKind.SWITCH_FLAP,)},
    # Cascading: crashes arrive twice as fast and reboots take so long
    # that failures overlap — the capacity-shed path's home turf.
    "cascade": {
        "kinds": (FleetFaultKind.SWITCH_CRASH,),
        "crash_restart_s": (6.0, 12.0),
        "rate_multiplier": 2.0,
    },
    "mixed": {"kinds": FLEET_KINDS},
}


@dataclass
class FleetChaosResult:
    """Everything one fleet chaos run produced, ready for assertions."""

    report: SimulationReport
    connections: List[Connection]
    fleet: FleetSilkRoad
    plan: FleetFaultPlan
    injector: FleetFaultInjector
    audit: FleetAuditReport
    fingerprint: str
    pattern: str
    #: measured connections kept / PCC-broken / blackholed-only.
    survival: Dict[str, int]
    recorder: Optional[FlightRecorder] = None
    timeline: Optional[Timeline] = None

    @property
    def ok(self) -> bool:
        return self.audit.ok

    def summary(self) -> str:
        s = self.survival
        return (
            f"fleet[{self.pattern}/{self.plan.seed}]: {len(self.plan)} faults, "
            f"{s['measured']} measured conns — {s['kept']} kept, "
            f"{s['broken']} broken, {s['blackholed']} blackholed "
            f"({int(self.fleet.shed_connections)} shed), "
            f"{int(self.fleet.detections)} detections, "
            f"{int(self.fleet.rejoins)} rejoins, "
            f"audit {'ok' if self.audit.ok else 'FAILED'}"
        )


def _survival(connections: Sequence[Connection]) -> Dict[str, int]:
    """Kept / broken / blackholed over the measured window.

    ``broken`` is a PCC violation (two DIPs seen); ``blackholed`` dropped
    packets but stayed on a single DIP; a connection that did both counts
    as broken.
    """
    measured = kept = broken = blackholed = 0
    for conn in connections:
        if conn.start < 0:
            continue
        measured += 1
        if conn.pcc_violated:
            broken += 1
        elif conn.ever_dropped:
            blackholed += 1
        else:
            kept += 1
    return {
        "measured": measured,
        "kept": kept,
        "broken": broken,
        "blackholed": blackholed,
    }


def pattern_overrides(pattern: str) -> Dict[str, object]:
    """The plan-generation overrides of one named failure pattern; an
    unknown name is the caller's input error, whoever the caller is (the
    sweep layout and the partitioned runner check it before spawning)."""
    if pattern not in FAILURE_PATTERNS:
        raise ValueError(
            f"unknown failure pattern {pattern!r} (have {sorted(FAILURE_PATTERNS)})"
        )
    return dict(FAILURE_PATTERNS[pattern])


def resolve_fleet_run(
    *,
    seed: int,
    fault_seed: Optional[int],
    pattern: str,
    num_switches: int,
    scale: float,
    horizon_s: float,
    warmup_s: float,
    updates_per_min: float,
    faults_per_min: float,
    replication: Optional[int],
    conn_budget: Optional[int],
    config: Optional[SilkRoadConfig],
    fleet_config: Optional[FleetConfig],
    plan: Optional[FleetFaultPlan],
    workload: Optional[PccWorkload] = None,
) -> Tuple[PccWorkload, FleetFaultPlan, SilkRoadConfig, FleetConfig]:
    """Resolve one fleet run's fully seeded inputs from :func:`run_fleet`'s
    knobs (which is where their defaults live; every knob is required here).

    Pure defaulting, no side effects: returns ``(workload, plan, config,
    fleet_config)`` exactly as :func:`run_fleet` replays them.  The
    space-partitioned runner calls this in every worker so each replica
    derives bit-identical inputs from the same scalar knobs — nothing
    heavyweight crosses the spawn pickle boundary.
    """
    overrides = pattern_overrides(pattern)
    if workload is None:
        workload = build_workload(
            updates_per_min,
            scale=scale,
            seed=seed,
            horizon_s=horizon_s,
            warmup_s=warmup_s,
        )
    if plan is None:
        rate = faults_per_min * float(overrides.pop("rate_multiplier", 1.0))
        plan = FleetFaultPlan.generate(
            seed + 2000 if fault_seed is None else fault_seed,
            horizon_s=workload.horizon_s,
            num_switches=num_switches,
            faults_per_min=rate,
            **overrides,
        )
    if config is None:
        config = SilkRoadConfig(conn_table_capacity=200_000)
    if fleet_config is None:
        fleet_config = FleetConfig(replication=replication, conn_budget=conn_budget)
    return workload, plan, config, fleet_config


def run_fleet(
    seed: int = 7,
    fault_seed: Optional[int] = None,
    pattern: str = "mixed",
    num_switches: int = 4,
    scale: float = 0.05,
    horizon_s: float = 20.0,
    warmup_s: float = 2.0,
    updates_per_min: float = 60.0,
    faults_per_min: float = 4.0,
    replication: Optional[int] = None,
    conn_budget: Optional[int] = None,
    config: Optional[SilkRoadConfig] = None,
    fleet_config: Optional[FleetConfig] = None,
    plan: Optional[FleetFaultPlan] = None,
    workload: Optional[PccWorkload] = None,
    driver: Optional[DriverOptions] = None,
    obs: Optional[ObsOptions] = None,
) -> FleetChaosResult:
    """One fully seeded fleet chaos run; see the module docstring.

    This signature is the one place a fleet run's knobs and their defaults
    are declared: the survival sweep (``run_sharded("fleet", params=...)``),
    :func:`~repro.experiments.parallel.run_fleet_partitioned` and the CLI
    all forward only what their caller gave.  ``fault_seed`` defaults to
    ``seed + 2000``; ``driver``/``obs`` are the replay/observability
    options (see :mod:`repro.options`).
    """
    driver = driver or DriverOptions()
    obs = obs or ObsOptions()
    workload, plan, config, fleet_config = resolve_fleet_run(
        seed=seed,
        fault_seed=fault_seed,
        pattern=pattern,
        num_switches=num_switches,
        scale=scale,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        updates_per_min=updates_per_min,
        faults_per_min=faults_per_min,
        replication=replication,
        conn_budget=conn_budget,
        config=config,
        fleet_config=fleet_config,
        plan=plan,
        workload=workload,
    )
    injector = FleetFaultInjector(plan)
    hook = ObsHook(obs, "fleet", workload.horizon_s)
    report, connections, fleet = workload.replay(
        lambda: FleetSilkRoad(
            num_switches=num_switches,
            config=config,
            fleet_config=fleet_config,
        ),
        faults=injector,
        attach=hook,
        batched=driver.batched,
        batch_size=driver.batch_size,
    )
    audit = audit_fleet(fleet, connections)
    return FleetChaosResult(
        report=report,
        connections=connections,
        fleet=fleet,
        plan=plan,
        injector=injector,
        audit=audit,
        fingerprint=fleet.fingerprint(),
        pattern=pattern,
        survival=_survival(connections),
        recorder=hook.recorder,
        timeline=hook.timeline,
    )
