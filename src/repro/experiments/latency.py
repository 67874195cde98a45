"""§2.2/§5.2: processing-latency comparison, switch ASIC vs SLB tier.

The paper's latency argument: SLBs add 50 µs - 1 ms of batching latency —
comparable to the 250 µs median datacenter RTT and fatal for 2-5 µs RDMA
RTTs — while a switching-ASIC pipeline adds well under a microsecond, and
new pipeline logic only tens of nanoseconds.  This experiment computes the
pipeline traversal time of an RMT-style chip and contrasts it with the
published SLB figures, including the multi-tier amplification the paper
describes (a request fanning out through several LB hops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import format_table
from ..baselines.slb import SLB_LATENCY_S

#: RMT reference chip (Bosshart et al., SIGCOMM'13): 32 match-action stages.
RMT_STAGES = 32

#: Per-stage traversal latency (ns); the paper quotes "sub-microsecond"
#: total pipeline latency and "tens of nanoseconds" added by new logic.
STAGE_LATENCY_NS = 18.0

#: Published latency anchors (seconds).
SLB_LATENCY_RANGE_S = (50e-6, 1e-3)
DATACENTER_RTT_MEDIAN_S = 250e-6  # Pingmesh median
RDMA_RTT_S = (2e-6, 5e-6)
DUET_MEDIAN_LATENCY_S = 474e-6


@dataclass(frozen=True)
class LatencyComparison:
    silkroad_pipeline_s: float
    slb_median_s: float
    duet_median_s: float

    @property
    def speedup_vs_slb(self) -> float:
        return self.slb_median_s / self.silkroad_pipeline_s

    def chained(self, hops: int, base_rtt_s: float = DATACENTER_RTT_MEDIAN_S) -> Dict[str, float]:
        """End-to-end latency when a request traverses ``hops`` LB layers."""
        if hops <= 0:
            raise ValueError("hops must be positive")
        return {
            "silkroad": base_rtt_s + hops * self.silkroad_pipeline_s,
            "slb": base_rtt_s + hops * self.slb_median_s,
        }


def run() -> LatencyComparison:
    return LatencyComparison(
        silkroad_pipeline_s=RMT_STAGES * STAGE_LATENCY_NS * 1e-9,
        slb_median_s=SLB_LATENCY_S,
        duet_median_s=DUET_MEDIAN_LATENCY_S,
    )


def main() -> str:
    comparison = run()
    rows: List = [
        ("SilkRoad pipeline traversal", f"{comparison.silkroad_pipeline_s * 1e6:.2f} us"),
        ("SLB added latency (median model)", f"{comparison.slb_median_s * 1e6:.0f} us"),
        ("SLB added latency (published range)",
         f"{SLB_LATENCY_RANGE_S[0] * 1e6:.0f}-{SLB_LATENCY_RANGE_S[1] * 1e6:.0f} us"),
        ("Duet median latency", f"{comparison.duet_median_s * 1e6:.0f} us"),
        ("datacenter RTT (median)", f"{DATACENTER_RTT_MEDIAN_S * 1e6:.0f} us"),
        ("RDMA RTT", f"{RDMA_RTT_S[0] * 1e6:.0f}-{RDMA_RTT_S[1] * 1e6:.0f} us"),
        ("speedup vs SLB", f"{comparison.speedup_vs_slb:.0f}x"),
    ]
    chained = comparison.chained(hops=3)
    rows.append(
        ("3-hop service chain (SilkRoad)", f"{chained['silkroad'] * 1e6:.0f} us")
    )
    rows.append(("3-hop service chain (SLB)", f"{chained['slb'] * 1e6:.0f} us"))
    table = format_table(
        ("metric", "value"), rows, title="Load-balancing latency (§2.2, §5.2)"
    )
    return table + "\npaper anchor: sub-microsecond pipeline vs 50us-1ms SLB batching"


if __name__ == "__main__":
    print(main())
