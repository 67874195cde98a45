"""Fleet failover survival table: kept vs. broken vs. blackholed.

Extends §7's single-failure scenario to a controller-managed fleet under
seeded chaos (:mod:`repro.faults.fleet`): switches crash and reboot,
control planes partition, heartbeats get lost, detection stalls, VIPs get
drained between switches.  For each failure pattern we replay a sweep of
independent fault plans and count, over the measured connections, how many

* **kept** their DIP end to end,
* **broke** PCC (saw two different DIPs — §7's version-pinned re-hash,
  an overflow shed, or a mid-reassignment race),
* were **blackholed** only (dropped packets during the detection window
  but never landed on a second DIP).

Every broken or blackholed connection must be *attributed* by
:func:`repro.deploy.fleet.audit_fleet` to a fleet-level cause; the
``unattributed`` column is required to be zero — that is the acceptance
bar for the fleet failure model, enforced by the tests and the CI smoke.

The sweep is ``run_sharded("fleet")`` — the one survival sweep, the
cells ``repro fleet`` replays — read back from its merged registry.  The
cascade pattern runs with a per-switch connection budget so the
graceful-degradation path (shedding the lowest-priority VIPs instead of
overflowing survivors' ConnTables) is exercised, not just implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..analysis import format_table
from .parallel import ShardedRunResult, fleet_cell, run_sharded

DEFAULT_PATTERNS: Tuple[str, ...] = (
    "crash",
    "partition",
    "flap",
    "cascade",
    "mixed",
)

#: Per-switch connection budget applied to the cascade pattern (only) so
#: overlapping failures push survivors over capacity and force sheds.
CASCADE_CONN_BUDGET = 60


@dataclass(frozen=True)
class SurvivalPoint:
    """Aggregated survival of one failure pattern across its plan sweep."""

    pattern: str
    plans: int
    faults: int
    measured: int
    kept: int
    broken: int
    blackholed: int
    shed: int
    detections: int
    rejoins: int
    unattributed: int
    audit_ok: bool

    @property
    def kept_fraction(self) -> float:
        return self.kept / self.measured if self.measured else 1.0


#: SurvivalPoint field -> the registry counter each plan's cell holds it
#: in, under the cell's prefix (``kept`` is what is left of ``measured``).
_COUNTED = {
    "faults": "faults_total",
    "measured": "measured_total",
    "broken": "pcc_broken_total",
    "blackholed": "blackholed_total",
    "shed": "fleet.fleet.shed_connections",
    "detections": "fleet.fleet.detections",
    "rejoins": "fleet.fleet.rejoins",
    "unattributed": "unattributed_total",
    "failed_audits": "failed_audits_total",
}


def survival_points(
    result: ShardedRunResult, patterns: Sequence[str], plans_per_pattern: int
) -> List[SurvivalPoint]:
    """One point per pattern, summed over its plans' cells in a
    ``run_sharded("fleet")`` result's merged registry.  A pattern's audit is
    ok when none of its plans failed the fleet audit and no shard was lost."""
    counts = result.registry.snapshot()

    def point(pattern: str) -> SurvivalPoint:
        cells = [fleet_cell(pattern, i) for i in range(plans_per_pattern)]
        sums = {
            key: int(sum(counts.get(f"{cell}.{name}", 0.0) for cell in cells))
            for key, name in _COUNTED.items()
        }
        failed_audits = sums.pop("failed_audits")
        return SurvivalPoint(
            pattern=pattern,
            plans=plans_per_pattern,
            audit_ok=not result.failed and failed_audits == 0,
            kept=sums["measured"] - sums["broken"] - sums["blackholed"],
            **sums,
        )

    return [point(pattern) for pattern in patterns]


def survival_table(points: Sequence[SurvivalPoint]) -> str:
    """The survival table, as ``repro experiments fleet_failover`` and
    ``repro fleet`` both print it."""
    rows = [
        (
            p.pattern,
            p.plans,
            p.faults,
            p.measured,
            p.kept,
            p.broken,
            p.blackholed,
            p.shed,
            p.detections,
            f"{100 * p.kept_fraction:.1f}",
            p.unattributed,
            "ok" if p.audit_ok else "FAILED",
        )
        for p in points
    ]
    return format_table(
        (
            "pattern",
            "plans",
            "faults",
            "measured",
            "kept",
            "broken",
            "blackholed",
            "shed",
            "detections",
            "% kept",
            "unattributed",
            "audit",
        ),
        rows,
        title="fleet failover survival under seeded chaos",
    )


def run(
    seed: int = 7,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
    plans_per_pattern: int = 4,
    num_switches: int = 4,
    scale: float = 0.03,
    horizon_s: float = 12.0,
    warmup_s: float = 1.0,
    updates_per_min: float = 60.0,
    faults_per_min: float = 6.0,
) -> List[SurvivalPoint]:
    """The survival sweep: ``plans_per_pattern`` seeded plans per pattern,
    one in-process ``run_sharded("fleet")`` per pattern (only cascade runs
    under :data:`CASCADE_CONN_BUDGET`).  Cells are seeded by ``seed`` and
    their ``(pattern, plan index)`` identity, as in every fleet sweep."""
    knobs = dict(
        num_switches=num_switches,
        scale=scale,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        updates_per_min=updates_per_min,
        faults_per_min=faults_per_min,
    )
    points: List[SurvivalPoint] = []
    for pattern in patterns:
        params = dict(knobs, patterns=(pattern,), plans_per_pattern=plans_per_pattern)
        if pattern == "cascade":
            params["conn_budget"] = CASCADE_CONN_BUDGET
        result = run_sharded("fleet", num_shards=1, workers=1, seed=seed, params=params)
        points += survival_points(result, (pattern,), plans_per_pattern)
    return points


def main(seed: int = 7) -> str:
    return survival_table(run(seed=seed)) + (
        "\nexpectation: every audit passes and the unattributed column is "
        "zero — each broken connection traces to a version-pinned re-hash, "
        "an overflow shed, or a reassignment race, and each blackholed one "
        "to the detection window"
    )


if __name__ == "__main__":
    print(main())
