"""Figure 16: PCC violations vs DIP-pool update frequency.

Replays the PoP-style workload at update rates from 1 to 50 per minute
against three systems:

* **Duet** (Migrate-10min, the paper's Duet setting),
* **SilkRoad without TransitTable** (updates execute immediately; pending
  connections re-hash during their few-millisecond insertion window),
* **SilkRoad** (3-step update with a 256-byte TransitTable).

Paper anchors (at 10 updates/min): Duet breaks 0.08 % of connections;
SilkRoad-without-TransitTable 0.00005 % (three orders of magnitude less);
SilkRoad breaks none at any rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..analysis import format_table
from ..baselines import DuetLoadBalancer, MigrationPolicy
from .common import build_workload, silkroad_factory

DEFAULT_RATES = (1.0, 10.0, 25.0, 50.0)


def default_systems(
    insertion_rate_per_s: float = 200_000.0,
    learning_timeout_s: float = 1e-3,
    duet_period_s: float = 120.0,
) -> Dict[str, Callable[[], object]]:
    """Duet's 10-minute migration period is compressed (default 2 min) so
    several migrate-back events fall inside the laptop-scale horizon; the
    violations-per-migration mechanism is unchanged."""
    return {
        "duet": lambda: DuetLoadBalancer(
            name="duet", policy=MigrationPolicy.PERIODIC, migrate_period_s=duet_period_s
        ),
        "silkroad-no-transittable": silkroad_factory(
            use_transit_table=False,
            insertion_rate_per_s=insertion_rate_per_s,
            learning_timeout_s=learning_timeout_s,
        ),
        "silkroad": silkroad_factory(
            use_transit_table=True,
            insertion_rate_per_s=insertion_rate_per_s,
            learning_timeout_s=learning_timeout_s,
        ),
    }


@dataclass
class Fig16Point:
    system: str
    updates_per_min: float
    violations: int
    measured_connections: int

    @property
    def violation_fraction(self) -> float:
        if self.measured_connections == 0:
            return 0.0
        return self.violations / self.measured_connections


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    scale: float = 1.0,
    seed: int = 16,
    horizon_s: float = 420.0,
    systems: Dict[str, Callable[[], object]] = None,
) -> List[Fig16Point]:
    """Replay every system at every update rate on the batched driver;
    the scalar oracle produces bit-identical points (the differential
    tests pin this), just slower."""
    if systems is None:
        # Insertion slowed proportionally to the scaled-down arrival rate so
        # the pending-connection window is as consequential as at full scale.
        systems = default_systems(insertion_rate_per_s=20_000.0)
    points: List[Fig16Point] = []
    for rate in rates:
        workload = build_workload(
            updates_per_min=rate, scale=scale, seed=seed, horizon_s=horizon_s
        )
        for name, factory in systems.items():
            report, _conns, _lb = workload.replay(factory)
            points.append(
                Fig16Point(
                    system=name,
                    updates_per_min=rate,
                    violations=report.pcc_violations,
                    measured_connections=report.measured_connections,
                )
            )
    return points


def main(scale: float = 1.0, seed: int = 16) -> str:
    points = run(scale=scale, seed=seed)
    rows = [
        (
            p.system,
            p.updates_per_min,
            p.violations,
            f"{100 * p.violation_fraction:.5f}",
        )
        for p in points
    ]
    table = format_table(
        ("system", "updates/min", "broken conns", "% of connections"),
        rows,
        title="Figure 16: PCC violations vs update frequency",
    )
    anchors = (
        "paper anchors @10/min: Duet 0.08%; SilkRoad-no-TT ~0.00005% "
        "(about 3 orders less); SilkRoad 0 at every rate"
    )
    return table + "\n" + anchors


if __name__ == "__main__":
    print(main())
