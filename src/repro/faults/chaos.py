"""Seeded chaos runs: workload + update stream + fault plan, then audit.

:func:`run_chaos` is the one-call harness behind the chaos regression
tests, the CLI ``chaos`` subcommand, and the CI smoke step.  It builds a
PoP-style workload, replays it against a *hardened* SilkRoad switch (bounded
CPU backlog, install retries, update watchdogs) while a seeded
:class:`~repro.faults.injector.FaultInjector` crashes and degrades the slow
path, and then:

* audits every cross-table invariant (:func:`repro.core.verify.audit_switch`),
  including that each PCC violation is attributable to the fault model;
* checks that every completed update reached ``t_finish`` within its
  per-step watchdog budget;
* fingerprints the metric registry, so two runs with the same seeds can be
  asserted bit-identical.

Everything is derived from ``(seed, fault_seed)``; there is no wall-clock
or global-RNG input anywhere in the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import SilkRoadConfig, SilkRoadSwitch
from ..core.verify import AuditReport, audit_switch
from ..experiments.common import PccWorkload, build_workload
from ..netsim import Connection, SimulationReport
from ..obs import FlightRecorder, ObsHook, Timeline
from ..options import ObsOptions
from .injector import FaultInjector
from .plan import FaultPlan

#: Watchdog budget used by the default chaos config.  Generous against the
#: default insertion rate, tight against a crashed CPU.
DEFAULT_STEP_DEADLINE_S = 0.05


def chaos_config(
    step_deadline_s: float = DEFAULT_STEP_DEADLINE_S,
    cpu_max_backlog: int = 4096,
    conn_table_capacity: int = 200_000,
) -> SilkRoadConfig:
    """The hardened configuration chaos runs exercise."""
    return SilkRoadConfig(
        conn_table_capacity=conn_table_capacity,
        cpu_max_backlog=cpu_max_backlog,
        update_step_deadline_s=step_deadline_s,
    )


@dataclass
class ChaosResult:
    """Everything a chaos run produced, ready for assertions."""

    report: SimulationReport
    connections: List[Connection]
    switch: SilkRoadSwitch
    plan: FaultPlan
    injector: FaultInjector
    audit: AuditReport
    fingerprint: str
    #: updates whose observed step durations exceeded the watchdog budget
    #: (plus scheduling slack); must be empty.
    overdue_updates: int
    #: flight recorder, when the run was started with ``record=True``.
    recorder: Optional[FlightRecorder] = None
    #: metric timeline, when ``timeline_period_s`` was given.
    timeline: Optional[Timeline] = None

    @property
    def ok(self) -> bool:
        return self.audit.ok and self.overdue_updates == 0

    def summary(self) -> str:
        counts = self.switch.metrics.snapshot()
        return (
            f"chaos[{self.plan.seed}]: {len(self.plan)} faults injected, "
            f"{self.report.pcc_violations} PCC violations "
            f"({int(counts['switch.at_risk_connections'])} at-risk, "
            f"{int(counts['switch_cpu.crashes_total'])} crashes, "
            f"{int(counts['slow_path.relearns_total'])} relearns), "
            f"{int(counts['update.updates_completed_total'])}/"
            f"{int(counts['update.updates_requested_total'])} updates done, "
            f"audit {'ok' if self.audit.ok else 'FAILED'}, "
            f"{self.overdue_updates} overdue updates"
        )


def _count_overdue(switch: SilkRoadSwitch, step_deadline_s: Optional[float]) -> int:
    """Updates that overran their per-step watchdog budget.

    The watchdog re-arms on every step transition, so each of the two
    waiting steps gets its own deadline; a small slack covers the event
    that fires exactly at the deadline plus the forced-advance cascade.
    """
    if step_deadline_s is None:
        return 0
    budget = 2.0 * step_deadline_s * 1.001
    return sum(
        1 for t in switch.coordinator.timings if t.t_finish - t.t_req > budget
    )


def run_chaos(
    seed: int = 7,
    fault_seed: Optional[int] = None,
    scale: float = 0.05,
    horizon_s: float = 20.0,
    warmup_s: float = 2.0,
    updates_per_min: float = 60.0,
    faults_per_min: float = 30.0,
    config: Optional[SilkRoadConfig] = None,
    plan: Optional[FaultPlan] = None,
    workload: Optional[PccWorkload] = None,
    obs: Optional[ObsOptions] = None,
) -> ChaosResult:
    """One fully seeded chaos run; see the module docstring.

    ``obs=ObsOptions(record=True)`` attaches a
    :class:`~repro.obs.FlightRecorder` to the switch (exposed as
    ``result.recorder`` — the input ``repro chaos --explain`` joins against the
    audit); ``ObsOptions(timeline_period_s=...)`` arms a
    :class:`~repro.obs.TimelineSampler` over the switch's registry and
    exposes the sampled :class:`~repro.obs.Timeline` as
    ``result.timeline``.  Both are off by default and add nothing to the
    hot path when off.  The run replays on the default driver; the
    differential tests run it again on the scalar oracle.
    """
    obs = obs or ObsOptions()
    if fault_seed is None:
        fault_seed = seed + 1000
    if workload is None:
        workload = build_workload(
            updates_per_min,
            scale=scale,
            seed=seed,
            horizon_s=horizon_s,
            warmup_s=warmup_s,
        )
    if plan is None:
        plan = FaultPlan.generate(
            fault_seed, horizon_s=workload.horizon_s, faults_per_min=faults_per_min
        )
    if config is None:
        config = chaos_config()
    injector = FaultInjector(plan)
    hook = ObsHook(obs, "chaos", workload.horizon_s)
    report, connections, switch = workload.replay(
        lambda: SilkRoadSwitch(config, name="silkroad-chaos"),
        faults=injector,
        attach=hook,
    )
    audit = audit_switch(switch, connections=connections)
    return ChaosResult(
        report=report,
        connections=connections,
        switch=switch,
        plan=plan,
        injector=injector,
        audit=audit,
        fingerprint=switch.metrics.fingerprint(),
        overdue_updates=_count_overdue(switch, config.update_step_deadline_s),
        recorder=hook.recorder,
        timeline=hook.timeline,
    )
