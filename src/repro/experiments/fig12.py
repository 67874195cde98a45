"""Figure 12: SRAM usage of SilkRoad deployed on ToR switches.

For every cluster of the fleet, the SRAM one ToR's SilkRoad needs:
ConnTable sized for the p99 active-connection snapshot (28-bit packed
entries), DIPPoolTable for the live pool versions, and VIPTable.

Paper anchors: PoPs need 14 MB in the median cluster and 32 MB at the
peak; Backends 15 MB median, 58 MB peak (91.7 % of which is ConnTable);
Frontends under 2 MB — all within the 50-100 MB of current ASICs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import Cdf, format_table
from ..asicsim.sram import megabytes
from ..core.sram_cost import conn_entry, pool_member_entry, vip_entry
from ..netsim.cluster import ClusterType
from ..traces import ClusterProfile, FleetSynthesizer

#: Live pool versions a VIP can hold: the 6-bit version field's 64.
MAX_LIVE_VERSIONS = 64


def live_versions_estimate(updates_per_min_p99: float) -> int:
    """Live pool versions a VIP's churn keeps around (bounded by 6 bits)."""
    return int(min(MAX_LIVE_VERSIONS, max(4, round(updates_per_min_p99))))


def conn_table_bytes(profile: ClusterProfile) -> int:
    """ConnTable sized for the cluster's p99 active connections per ToR."""
    return conn_entry().bytes_for(int(profile.active_conns_per_tor_p99))


def pool_table_bytes(profile: ClusterProfile) -> int:
    """DIPPoolTable holding every VIP's live pool versions."""
    versions = live_versions_estimate(profile.updates_per_min_p99)
    members = profile.num_vips * versions * profile.dips_per_vip
    return pool_member_entry(profile.ipv6).bytes_for(members)


def silkroad_sram_bytes(profile: ClusterProfile) -> int:
    """Per-ToR SRAM demand of SilkRoad for one cluster profile."""
    vip = vip_entry(profile.ipv6).bytes_for(profile.num_vips)
    return conn_table_bytes(profile) + pool_table_bytes(profile) + vip


@dataclass
class Fig12Result:
    usage_mb: Dict[ClusterType, List[float]]
    conn_table_share: Dict[ClusterType, float]

    def cdf(self, kind: ClusterType) -> Cdf:
        return Cdf.of(self.usage_mb[kind])


def run(seed: int = 12) -> Fig12Result:
    profiles = FleetSynthesizer(seed=seed).synthesize()
    usage: Dict[ClusterType, List[float]] = {k: [] for k in ClusterType}
    conn_share: Dict[ClusterType, List[float]] = {k: [] for k in ClusterType}
    for profile in profiles:
        total = silkroad_sram_bytes(profile)
        conn = conn_table_bytes(profile)
        usage[profile.kind].append(megabytes(total))
        conn_share[profile.kind].append(conn / total if total else 0.0)
    return Fig12Result(
        usage_mb=usage,
        conn_table_share={
            kind: sum(shares) / len(shares) if shares else 0.0
            for kind, shares in conn_share.items()
        },
    )


def main(seed: int = 12) -> str:
    result = run(seed=seed)
    rows = []
    for kind in ClusterType:
        cdf = result.cdf(kind)
        rows.append(
            (
                kind.value,
                f"{cdf.median:.1f}",
                f"{cdf.quantile(1.0):.1f}",
                f"{100 * result.conn_table_share[kind]:.1f}",
            )
        )
    table = format_table(
        ("cluster type", "median MB", "peak MB", "ConnTable share %"),
        rows,
        title="Figure 12: SilkRoad SRAM usage per ToR across clusters",
    )
    anchors = (
        "paper anchors: PoPs 14 MB median / 32 MB peak; Backends 15 / 58 "
        "(91.7% ConnTable); Frontends < 2 MB; all fit in 50-100 MB ASICs"
    )
    return table + "\n" + anchors


if __name__ == "__main__":
    print(main())
