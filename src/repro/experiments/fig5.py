"""Figure 5: the Duet dilemma — SLB load (5a) vs PCC violations (5b).

Replays the PoP-style workload against Duet's three migrate-back policies
at update rates from 1 to 50 per minute, and reports (a) the fraction of
traffic volume handled in SLBs, and (b) the fraction of connections whose
PCC breaks.

Paper anchors (at 50 updates/min, Hadoop flows): Migrate-10min keeps
74.3 % of traffic in SLBs and breaks 0.3 % of connections; Migrate-1min
drops the load to 13.2 % but breaks 1.4 %; Migrate-PCC breaks nothing but
keeps 93.8 % in SLBs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis import format_table
from ..baselines import DuetLoadBalancer, MigrationPolicy
from ..netsim import traffic_fraction_at
from ..netsim.flows import CACHE, HADOOP, DurationModel
from .common import build_workload

#: The three ConnTable-in-SLB settings of §3.2.
POLICIES = {
    "Migrate-10min": (MigrationPolicy.PERIODIC, 600.0),
    "Migrate-1min": (MigrationPolicy.PERIODIC, 60.0),
    "Migrate-PCC": (MigrationPolicy.PCC_SAFE, 600.0),
}

DEFAULT_RATES = (1.0, 10.0, 50.0)


@dataclass
class Fig5Point:
    policy: str
    updates_per_min: float
    slb_traffic_fraction: float
    violation_fraction: float


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    scale: float = 1.0,
    seed: int = 5,
    duration_model: DurationModel = HADOOP,
    horizon_s: float = 1500.0,
) -> List[Fig5Point]:
    """``horizon_s`` must cover at least one 10-minute migration period,
    or Migrate-10min degenerates into never-migrate."""
    """Sweep update rates across the three policies."""
    points: List[Fig5Point] = []
    for rate in rates:
        workload = build_workload(
            updates_per_min=rate,
            scale=scale,
            seed=seed,
            horizon_s=horizon_s,
            duration_model=duration_model,
        )
        for label, (policy, period) in POLICIES.items():
            report, conns, lb = workload.replay(
                lambda: DuetLoadBalancer(
                    name=label.lower(), policy=policy, migrate_period_s=period
                )
            )
            assert isinstance(lb, DuetLoadBalancer)
            slb_fraction = traffic_fraction_at(
                conns, lb.slb_intervals(), workload.horizon_s
            )
            points.append(
                Fig5Point(
                    policy=label,
                    updates_per_min=rate,
                    slb_traffic_fraction=slb_fraction,
                    violation_fraction=report.violation_fraction,
                )
            )
    return points


def run_cache(
    rate: float = 50.0,
    scale: float = 0.2,
    seed: int = 55,
    horizon_s: float = 1500.0,
) -> List[Fig5Point]:
    """§3.2's long-flow variant: cache traffic (4.5-minute median flows).

    With long-lived connections, far more of them are 'old' at every
    migrate-back; the paper measures 53.5 % of connections broken for
    Migrate-10min at 50 updates/min.
    """
    return run(
        rates=(rate,),
        scale=scale,
        seed=seed,
        duration_model=CACHE,
        horizon_s=horizon_s,
    )


def main(scale: float = 1.0, seed: int = 5) -> str:
    points = run(scale=scale, seed=seed)
    rows = [
        (
            p.policy,
            p.updates_per_min,
            f"{100 * p.slb_traffic_fraction:.1f}",
            f"{100 * p.violation_fraction:.4f}",
        )
        for p in points
    ]
    table = format_table(
        ("policy", "updates/min", "SLB traffic %", "PCC violations %"),
        rows,
        title="Figure 5: SLB load vs PCC violations (ConnTable in SLBs)",
    )
    anchors = (
        "paper anchors @50 upd/min: 10min -> 74.3% load / 0.3% broken; "
        "1min -> 13.2% / 1.4%; PCC -> 93.8% / 0%"
    )
    cache_points = run_cache(scale=min(scale, 0.2), seed=seed + 50)
    cache_rows = [
        (
            p.policy,
            p.updates_per_min,
            f"{100 * p.slb_traffic_fraction:.1f}",
            f"{100 * p.violation_fraction:.2f}",
        )
        for p in cache_points
    ]
    cache_table = format_table(
        ("policy", "updates/min", "SLB traffic %", "PCC violations %"),
        cache_rows,
        title="Figure 5 (cache traffic, 4.5-min median flows)",
    )
    cache_anchor = (
        "paper anchor: Migrate-10min breaks 53.5% of connections with "
        "cache traffic at 50 upd/min"
    )
    return "\n".join([table, anchors, "", cache_table, cache_anchor])


if __name__ == "__main__":
    print(main())
