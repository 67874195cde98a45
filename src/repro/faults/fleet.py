"""The seeded fleet-chaos harness.

:mod:`repro.faults.plan` declares every fault kind; this module runs the
fleet ones (:data:`~repro.faults.plan.FLEET_KINDS`: whole-switch crashes
and reboots, control-plane partitions, flapping, lost heartbeat probes,
delayed detection, VIP reassignments) against a deployment.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.config import SilkRoadConfig
from ..deploy.fleet import FleetSilkRoad, FleetAuditReport, audit_fleet
from ..experiments.common import PccWorkload, build_workload
from ..netsim import Connection, SimulationReport
from ..obs import FlightRecorder, ObsHook, Timeline
from ..obs.causes import survival
from ..options import ObsOptions
from .injector import FaultInjector
from .plan import FLEET_KINDS, FaultKind, FaultPlan


#: Named failure patterns the survival table sweeps over.  Each maps to
#: the kind mix (and range overrides) handed to :meth:`FaultPlan.generate`.
FAILURE_PATTERNS: Dict[str, Dict[str, object]] = {
    "crash": {"kinds": (FaultKind.SWITCH_CRASH,)},
    "partition": {"kinds": (FaultKind.SWITCH_PARTITION,)},
    "flap": {"kinds": (FaultKind.SWITCH_FLAP,)},
    # Cascading: crashes arrive twice as fast and reboots take so long
    # that failures overlap — the capacity-shed path's home turf.
    "cascade": {
        "kinds": (FaultKind.SWITCH_CRASH,),
        "ranges": {(FaultKind.SWITCH_CRASH, "duration_s"): (6.0, 12.0)},
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
    plan: FaultPlan
    injector: FaultInjector
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
    config: Optional[SilkRoadConfig],
    plan: Optional[FaultPlan],
    workload: Optional[PccWorkload] = None,
) -> Tuple[PccWorkload, FaultPlan, SilkRoadConfig]:
    """Resolve one fleet run's fully seeded inputs from :func:`run_fleet`'s
    knobs (which is where their defaults live; every knob is required here).

    Pure defaulting, no side effects: returns ``(workload, plan, config)``
    exactly as :func:`run_fleet` replays them.  The
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
        plan = FaultPlan.generate(
            seed + 2000 if fault_seed is None else fault_seed,
            horizon_s=workload.horizon_s,
            faults_per_min=rate,
            num_switches=num_switches,
            **overrides,
        )
    if config is None:
        config = SilkRoadConfig(conn_table_capacity=200_000)
    return workload, plan, config


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
    plan: Optional[FaultPlan] = None,
    workload: Optional[PccWorkload] = None,
    obs: Optional[ObsOptions] = None,
) -> FleetChaosResult:
    """One fully seeded fleet chaos run; see the module docstring.

    This signature is the one place a fleet run's knobs and their defaults
    are declared: the survival sweep (``run_sharded("fleet", params=...)``),
    :func:`~repro.experiments.parallel.run_fleet_partitioned` and the CLI
    all forward only what their caller gave.  ``fault_seed`` defaults to
    ``seed + 2000``; ``obs`` is the observability option (see
    :mod:`repro.options`).  The run replays on the default driver.
    """
    obs = obs or ObsOptions()
    workload, plan, config = resolve_fleet_run(
        seed=seed,
        fault_seed=fault_seed,
        pattern=pattern,
        num_switches=num_switches,
        scale=scale,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        updates_per_min=updates_per_min,
        faults_per_min=faults_per_min,
        config=config,
        plan=plan,
        workload=workload,
    )
    injector = FaultInjector(plan)
    hook = ObsHook(obs, "fleet", workload.horizon_s)
    report, connections, fleet = workload.replay(
        lambda: FleetSilkRoad(
            num_switches=num_switches,
            config=config,
            replication=replication,
            conn_budget=conn_budget,
        ),
        faults=injector,
        attach=hook,
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
        survival=survival(
            (c.start, c.pcc_violated, c.ever_dropped) for c in connections
        ),
        recorder=hook.recorder,
        timeline=hook.timeline,
    )
