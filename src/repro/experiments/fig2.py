"""Figure 2: frequency of DIP-pool updates across clusters.

For each cluster of a synthesized month-long fleet trace we take the median
and 99th-percentile minute's update count, then report the complementary
CDF across clusters ("Y % of clusters have more than X updates per minute").

Paper anchors: 32 % of clusters exceed 10 updates/min in their p99 minute,
3 % exceed 50; half the Backends exceed 16; some PoPs/Frontends exceed 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..analysis import Cdf, format_table, percent_above
from ..netsim.cluster import ClusterType
from ..traces import FleetSynthesizer


@dataclass
class Fig2Result:
    per_cluster_median: Dict[ClusterType, List[float]]
    per_cluster_p99: Dict[ClusterType, List[float]]

    def all_p99(self) -> List[float]:
        return [x for values in self.per_cluster_p99.values() for x in values]

    def pct_clusters_p99_above(self, threshold: float) -> float:
        return percent_above(self.all_p99(), threshold)


def run(seed: int = 2, minutes: int = 4_320) -> Fig2Result:
    """Synthesize a fleet month (default: 3 days of minutes per cluster to
    keep runtime low; the statistics converge well before a full month)."""
    synth = FleetSynthesizer(seed=seed)
    profiles = synth.synthesize()
    medians: Dict[ClusterType, List[float]] = {k: [] for k in ClusterType}
    p99s: Dict[ClusterType, List[float]] = {k: [] for k in ClusterType}
    for profile in profiles:
        counts = synth.monthly_minutes(profile, minutes=minutes)
        medians[profile.kind].append(float(np.median(counts)))
        p99s[profile.kind].append(float(np.percentile(counts, 99)))
    return Fig2Result(per_cluster_median=medians, per_cluster_p99=p99s)


def main(seed: int = 2) -> str:
    result = run(seed=seed)
    rows: List[Tuple[str, float, float, float]] = []
    for kind in ClusterType:
        p99 = result.per_cluster_p99[kind]
        if not p99:
            continue
        cdf = Cdf.of(p99)
        rows.append(
            (
                kind.value,
                cdf.median,
                100.0 * cdf.fraction_above(10),
                100.0 * cdf.fraction_above(50),
            )
        )
    rows.append(
        (
            "all",
            Cdf.of(result.all_p99()).median,
            result.pct_clusters_p99_above(10),
            result.pct_clusters_p99_above(50),
        )
    )
    table = format_table(
        ("cluster type", "median p99-minute upd/min", "% clusters >10", "% clusters >50"),
        rows,
        title="Figure 2: DIP pool update frequency (99th percentile minute)",
    )
    paper = "paper anchors: all clusters -> 32% above 10, 3% above 50"
    return table + "\n" + paper


if __name__ == "__main__":
    print(main())
