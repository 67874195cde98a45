"""§7: combining SilkRoad with SLBs — ConnTable as a connection cache.

When ConnTable fills, SilkRoad can redirect the overflow connections to
software (the switch CPU or an SLB tier): their mappings are pinned there,
so PCC still holds, but the overflow traffic loses the ASIC's latency and
throughput benefits.  This experiment sweeps ConnTable sizes under a fixed
offered load and reports the overflow fraction and PCC outcome of the
hybrid against the pure ablation that leaves overflow on the slow path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .common import build_workload


@dataclass(frozen=True)
class HybridPoint:
    conn_table_capacity: int
    hybrid: bool
    violations: int
    overflow_pinned: int
    table_full_events: int
    connections: int


def run(
    capacities: Sequence[int] = (1_000, 5_000, 50_000),
    scale: float = 0.5,
    seed: int = 77,
    horizon_s: float = 120.0,
    updates_per_min: float = 20.0,
) -> List[HybridPoint]:
    points: List[HybridPoint] = []
    workload = build_workload(
        updates_per_min=updates_per_min, scale=scale, seed=seed, horizon_s=horizon_s
    )
    for capacity in capacities:
        for hybrid in (False, True):
            def factory(capacity=capacity, hybrid=hybrid):
                from ..core import SilkRoadConfig, SilkRoadSwitch

                config = SilkRoadConfig(
                    conn_table_capacity=capacity,
                    overflow_to_software=hybrid,
                    insertion_rate_per_s=50_000.0,
                )
                name = "hybrid" if hybrid else "pure"
                return SilkRoadSwitch(config, name=f"{name}-{capacity}")

            report, _conns, lb = workload.replay(factory)
            points.append(
                HybridPoint(
                    conn_table_capacity=capacity,
                    hybrid=hybrid,
                    violations=report.pcc_violations,
                    overflow_pinned=int(lb.overflow_pinned),
                    table_full_events=int(lb.table_full_events),
                    connections=report.measured_connections,
                )
            )
    return points


def main(seed: int = 77) -> str:
    from ..analysis import format_table

    points = run(seed=seed)
    rows = [
        (
            p.conn_table_capacity,
            "hybrid" if p.hybrid else "slow-path",
            p.table_full_events,
            p.overflow_pinned,
            p.violations,
        )
        for p in points
    ]
    table = format_table(
        (
            "ConnTable capacity",
            "overflow policy",
            "overflow events",
            "pinned in software",
            "PCC violations",
        ),
        rows,
        title="§7 hybrid: ConnTable as a cache, overflow to software/SLB",
    )
    return table + (
        "\nexpectation: the hybrid keeps PCC at zero even when ConnTable "
        "overflows; the slow-path ablation can break overflow connections"
    )


if __name__ == "__main__":
    print(main())
