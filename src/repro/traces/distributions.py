"""Distribution fits for the production measurements the paper reports.

The paper's workload characterization (Figs 2, 4, 6, 8) comes from a month
of operational logs across ~100 clusters of a large web service provider.
Those traces are proprietary; this module encodes lognormal fits whose
summary statistics match the curves the paper publishes, so the trace
synthesizer (:mod:`repro.traces.workload`) regenerates fleets with the same
marginals.  Each fit records the paper facts it is anchored to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..netsim.cluster import ClusterType


@dataclass(frozen=True)
class LogNormalFit:
    """A lognormal described by its median and shape."""

    median: float
    sigma: float

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError("median must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if self.sigma == 0:
            if size is None:
                return self.median
            return np.full(size, self.median)
        return rng.lognormal(mean=math.log(self.median), sigma=self.sigma, size=size)

    def quantile(self, q: float) -> float:
        if self.sigma == 0:
            return self.median
        from scipy.stats import norm

        return self.median * math.exp(self.sigma * float(norm.ppf(q)))


# ----------------------------------------------------------------------
# Fig 2 — DIP-pool updates per minute, per cluster, p99 minute of a month.
# Anchors: overall 32 % of clusters >10/min, 3 % >50/min at p99; half the
# Backends >16; a few PoPs/Frontends >100 (shared-DIP bursts).
# ----------------------------------------------------------------------

UPDATE_P99_PER_MIN = {
    ClusterType.BACKEND: LogNormalFit(median=13.0, sigma=0.75),
    ClusterType.POP: LogNormalFit(median=3.0, sigma=1.45),
    ClusterType.FRONTEND: LogNormalFit(median=3.0, sigma=1.45),
}

#: The median minute carries far fewer updates than the p99 minute; the
#: paper notes some clusters still see 10/min at the median.  Ratio of
#: median-minute rate to p99-minute rate.
UPDATE_MEDIAN_TO_P99_RATIO = LogNormalFit(median=0.08, sigma=0.8)


# ----------------------------------------------------------------------
# Fig 6 — active connections per ToR (p99 snapshot), per cluster.
# Anchors: peak PoP ~11 M (most-loaded ~10 M), peak Backend ~15 M,
# Frontends well below 1 M (they terminate few persistent connections).
# ----------------------------------------------------------------------

ACTIVE_CONNS_PER_TOR_P99 = {
    ClusterType.POP: LogNormalFit(median=3.5e6, sigma=0.55),
    ClusterType.BACKEND: LogNormalFit(median=2.5e6, sigma=0.78),
    ClusterType.FRONTEND: LogNormalFit(median=9.0e4, sigma=0.85),
}

#: Per-cluster median snapshot relative to its p99 snapshot.
ACTIVE_MEDIAN_TO_P99_RATIO = LogNormalFit(median=0.45, sigma=0.35)


# ----------------------------------------------------------------------
# Fig 8 — new connections per VIP per minute.
# Anchor: spans ~1 K to >50 M per minute; PoP average 18.7 K (§3.2).
# ----------------------------------------------------------------------

NEW_CONNS_PER_VIP_PER_MIN = {
    ClusterType.POP: LogNormalFit(median=18_700.0, sigma=1.6),
    ClusterType.BACKEND: LogNormalFit(median=8_000.0, sigma=2.1),
    ClusterType.FRONTEND: LogNormalFit(median=2_000.0, sigma=1.4),
}


# ----------------------------------------------------------------------
# Traffic volume / packet sizes, per cluster type (for Figure 13 sizing).
# Anchors: §6.1 — PoPs need 2-3x more SLBs than SilkRoads (short,
# packet-heavy user connections); Frontends replace ~11 SLBs (persistent
# high-volume connections from PoPs); Backends replace 3 in the median and
# 277 in the peak cluster (volume-centric storage/cache traffic).
# ----------------------------------------------------------------------

CLUSTER_TRAFFIC_GBPS = {
    ClusterType.POP: LogNormalFit(median=25.0, sigma=0.8),
    ClusterType.FRONTEND: LogNormalFit(median=110.0, sigma=0.7),
    ClusterType.BACKEND: LogNormalFit(median=30.0, sigma=1.6),
}

AVG_PACKET_BYTES = {
    ClusterType.POP: 350.0,  # chatty user-facing traffic
    ClusterType.FRONTEND: 1100.0,  # bulk persistent connections
    ClusterType.BACKEND: 900.0,  # volume-centric service-to-service
}


# Fig 4's DIP downtime per root cause (3 min median / 100 min p99 for
# upgrades, etc.) lives in :data:`repro.netsim.updates.DOWNTIME_BY_CAUSE`.
