"""Figure 6: number of active connections per ToR switch across clusters.

CDF (across clusters) of the median and 99th-percentile per-minute
ConnTable snapshot size, normalized per ToR.

Paper anchors: the most loaded PoPs and Backends hold ~10 M and ~15 M
active connections per ToR respectively; Frontends hold far fewer (they
merge user-facing connections into a few persistent ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis import Cdf, format_table
from ..netsim.cluster import ClusterType
from ..traces import ClusterProfile, FleetSynthesizer


@dataclass
class Fig6Result:
    profiles: List[ClusterProfile]

    def by_kind(self, kind: ClusterType) -> List[ClusterProfile]:
        return [p for p in self.profiles if p.kind is kind]

    def p99_cdf(self, kind: ClusterType) -> Cdf:
        return Cdf.of(p.active_conns_per_tor_p99 for p in self.by_kind(kind))

    def median_cdf(self, kind: ClusterType) -> Cdf:
        return Cdf.of(p.active_conns_per_tor_median for p in self.by_kind(kind))


def run(seed: int = 6) -> Fig6Result:
    return Fig6Result(profiles=FleetSynthesizer(seed=seed).synthesize())


def main(seed: int = 6) -> str:
    result = run(seed=seed)
    rows = []
    for kind in ClusterType:
        p99 = result.p99_cdf(kind)
        med = result.median_cdf(kind)
        rows.append(
            (
                kind.value,
                f"{med.median / 1e6:.2f}M",
                f"{p99.median / 1e6:.2f}M",
                f"{p99.quantile(1.0) / 1e6:.1f}M",
            )
        )
    table = format_table(
        (
            "cluster type",
            "median cluster (median snapshot)",
            "median cluster (p99 snapshot)",
            "peak cluster (p99 snapshot)",
        ),
        rows,
        title="Figure 6: active connections per ToR across clusters",
    )
    return table + "\npaper anchors: peak PoP ~10M, peak Backend ~15M, Frontends far fewer"


if __name__ == "__main__":
    print(main())
