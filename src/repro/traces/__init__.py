"""Synthetic production-trace substitutes.

The paper's workload characterization uses proprietary traces from ~100
clusters of a large web service provider; this package regenerates fleets
with matching marginal distributions (see DESIGN.md's substitution table).
"""

from .distributions import (
    ACTIVE_CONNS_PER_TOR_P99,
    ACTIVE_MEDIAN_TO_P99_RATIO,
    AVG_PACKET_BYTES,
    CLUSTER_TRAFFIC_GBPS,
    LogNormalFit,
    NEW_CONNS_PER_VIP_PER_MIN,
    UPDATE_MEDIAN_TO_P99_RATIO,
    UPDATE_P99_PER_MIN,
)
from .io import (
    FLEET_COLUMNS,
    TraceFormatError,
    dump_fleet,
    load_fleet,
)
from .rootcauses import (
    BACKEND_ONLY_CAUSES,
    cause_mix_for,
    cause_shares,
    sample_causes,
)
from .workload import DEFAULT_MIX, ClusterProfile, FleetSynthesizer

__all__ = [
    "ACTIVE_CONNS_PER_TOR_P99",
    "ACTIVE_MEDIAN_TO_P99_RATIO",
    "AVG_PACKET_BYTES",
    "BACKEND_ONLY_CAUSES",
    "CLUSTER_TRAFFIC_GBPS",
    "ClusterProfile",
    "DEFAULT_MIX",
    "FLEET_COLUMNS",
    "TraceFormatError",
    "dump_fleet",
    "load_fleet",
    "FleetSynthesizer",
    "LogNormalFit",
    "NEW_CONNS_PER_VIP_PER_MIN",
    "UPDATE_MEDIAN_TO_P99_RATIO",
    "UPDATE_P99_PER_MIN",
    "cause_mix_for",
    "cause_shares",
    "sample_causes",
]
