"""§7: switch-failure behaviour of a network-wide SilkRoad deployment.

Runs a :class:`~repro.deploy.fleet.FleetSilkRoad` — a layer of SilkRoad
switches behind resilient fabric ECMP — kills one mid-run, and measures
which of its connections break: only flows pinned to an *older* pool
version (their ConnTable state died with the switch and the survivors
re-hash them under the current pool) — the same exposure as losing an SLB.
The scenario runs twice, with and without a DIP-pool update shortly before
the failure, to show the old-version exposure appear.

The paper's arithmetic assumes the fabric learns of the failure at once.
The fleet has no such mode; the *caller* is the oracle: crashing the switch
and declaring it down at the same instant is zero-detection-latency
failover.  Every run is audited with :func:`~repro.deploy.fleet.audit_fleet`,
which must attribute each broken connection to ``version_pinned_rehash``.

A second scenario attacks the *slow path* of a single switch instead:
seeded chaos runs (CPU crashes/stalls, failing table writes, lost
notifications — see :mod:`repro.faults`) against the hardened
configuration, verifying that every invariant audit passes and PCC
violations stay attributable to the injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core import SilkRoadConfig
from ..deploy.fleet import FleetAuditReport, FleetSilkRoad, audit_fleet
from ..netsim.simulator import PRIO_INTERNAL
from ..netsim.updates import UpdateEvent, UpdateKind
from .common import build_workload


@dataclass(frozen=True)
class FailurePoint:
    update_before_failure: bool
    failed_over: int
    violations: int
    measured_connections: int
    audit: FleetAuditReport

    @property
    def broken_fraction_of_moved(self) -> float:
        if self.failed_over == 0:
            return 0.0
        return self.violations / self.failed_over


def run(
    num_switches: int = 4,
    scale: float = 0.3,
    seed: int = 7,
    horizon_s: float = 120.0,
    failure_at: float = 80.0,
) -> List[FailurePoint]:
    points: List[FailurePoint] = []
    for update_before in (False, True):
        workload = build_workload(
            updates_per_min=0.0,  # updates injected manually below
            scale=scale,
            seed=seed,
            horizon_s=horizon_s,
        )
        if update_before:
            # Remove one DIP of every VIP shortly before the failure, so
            # long-lived connections sit on the old pool version.
            workload.updates = [
                UpdateEvent(
                    failure_at - 30.0, service.vip, UpdateKind.REMOVE, service.dips[-1]
                )
                for service in workload.cluster.services
            ]

        def fail_now(sim, fleet: FleetSilkRoad) -> None:
            def oracle() -> None:
                fleet.inject_switch_crash(1)
                fleet.declare_down(1)

            sim.queue.schedule(failure_at, oracle, PRIO_INTERNAL)

        report, conns, fleet = workload.replay(
            lambda: FleetSilkRoad(
                num_switches=num_switches,
                config=SilkRoadConfig(conn_table_capacity=100_000),
            ),
            attach=fail_now,
        )
        points.append(
            FailurePoint(
                update_before_failure=update_before,
                failed_over=fleet.handoffs,
                violations=report.pcc_violations,
                measured_connections=report.measured_connections,
                audit=audit_fleet(fleet, conns),
            )
        )
    return points


@dataclass(frozen=True)
class ChaosPoint:
    fault_seed: int
    faults_injected: int
    crashes: int
    relearns: int
    at_risk: int
    watchdog_forced: int
    pcc_violations: int
    updates_completed: int
    audit_ok: bool


def run_slow_path_chaos(
    seed: int = 7,
    fault_seeds: tuple = (101, 202, 303),
    scale: float = 0.05,
    horizon_s: float = 20.0,
) -> List[ChaosPoint]:
    """Sweep fault seeds over the hardened slow path; every run must audit
    clean regardless of what the plan injected."""
    from ..faults import run_chaos

    points: List[ChaosPoint] = []
    for fault_seed in fault_seeds:
        result = run_chaos(
            seed=seed, fault_seed=fault_seed, scale=scale, horizon_s=horizon_s
        )
        counts = result.switch.metrics.snapshot()
        points.append(
            ChaosPoint(
                fault_seed=fault_seed,
                faults_injected=len(result.plan),
                crashes=int(counts["switch_cpu.crashes_total"]),
                relearns=int(counts["slow_path.relearns_total"]),
                at_risk=int(counts["switch.at_risk_connections"]),
                watchdog_forced=int(counts["update.watchdog_forced_steps_total"]),
                pcc_violations=result.report.pcc_violations,
                updates_completed=int(counts["update.updates_completed_total"]),
                audit_ok=result.ok,
            )
        )
    return points


def main(seed: int = 7) -> str:
    from ..analysis import format_table

    points = run(seed=seed)
    rows = [
        (
            "yes" if p.update_before_failure else "no",
            p.failed_over,
            p.violations,
            f"{100 * p.broken_fraction_of_moved:.1f}",
            "ok" if p.audit.ok else "FAILED",
        )
        for p in points
    ]
    table = format_table(
        (
            "update before failure",
            "connections failed over",
            "broken",
            "% of moved",
            "fleet audit",
        ),
        rows,
        title="§7 switch failure: only old-version connections break",
    )
    chaos_points = run_slow_path_chaos(seed=seed)
    chaos_rows = [
        (
            p.fault_seed,
            p.faults_injected,
            p.crashes,
            p.relearns,
            p.at_risk,
            p.watchdog_forced,
            p.pcc_violations,
            p.updates_completed,
            "ok" if p.audit_ok else "FAILED",
        )
        for p in chaos_points
    ]
    chaos_table = format_table(
        (
            "fault seed",
            "faults",
            "crashes",
            "relearns",
            "at-risk",
            "forced steps",
            "PCC broken",
            "updates done",
            "audit",
        ),
        chaos_rows,
        title="slow-path chaos: hardened switch under seeded fault injection",
    )
    return (
        table
        + (
            "\nexpectation: without a preceding update every moved connection "
            "re-hashes identically (same VIPTable) and survives; with one, the "
            "old-version connections are exposed"
        )
        + "\n\n"
        + chaos_table
        + (
            "\nexpectation: every audit passes; violations, if any, are "
            "attributable to watchdog-forced (at-risk) connections"
        )
    )


if __name__ == "__main__":
    print(main())
