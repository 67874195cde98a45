"""Data-center cluster model.

The paper studies about a hundred clusters of three types (§3.1):

* **PoPs** (points of presence) — terminate user-facing connections; many
  short connections (up to ~11 M active per ToR in the peak cluster).
* **Frontends** — serve PoPs over a few large persistent connections
  (< 1 M active per ToR).
* **Backends** — run services; most DIP-pool churn (up to ~15 M active
  connections per ToR in the peak cluster); mostly IPv6.

A :class:`Cluster` owns its VIPs, each VIP its DIP pool, plus the traffic
parameters the experiments need (new-connection rate, active-connection
count, volume).  Address allocation is deterministic so experiments are
reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .flows import CACHE, HADOOP, DurationModel
from .packet import DirectIP, VirtualIP


class ClusterType(enum.Enum):
    POP = "pop"
    FRONTEND = "frontend"
    BACKEND = "backend"


#: Address bases for deterministic allocation.
_VIP_BASE_V4 = 0x1400_0000  # 20.0.0.0/8
_DIP_BASE_V4 = 0x0A00_0000  # 10.0.0.0/8
_VIP_BASE_V6 = 0x2001_0DB8 << 96
_DIP_BASE_V6 = 0xFD00 << 112


@dataclass
class VipService:
    """One load-balanced service: a VIP and its DIP pool."""

    vip: VirtualIP
    dips: List[DirectIP]
    new_conns_per_min: float = 18_700.0  # PoP average (§3.2)
    duration_model: DurationModel = HADOOP

    def __post_init__(self) -> None:
        if not self.dips:
            raise ValueError("a VIP needs at least one DIP")


@dataclass
class Cluster:
    """A cluster: type, ToR count, and its VIP services."""

    name: str
    kind: ClusterType
    num_tors: int
    services: List[VipService] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_tors <= 0:
            raise ValueError("a cluster needs at least one ToR")

    @property
    def vips(self) -> List[VirtualIP]:
        return [s.vip for s in self.services]

    def pools(self) -> Dict[VirtualIP, List[DirectIP]]:
        return {s.vip: list(s.dips) for s in self.services}

    def total_new_conns_per_min(self) -> float:
        return sum(s.new_conns_per_min for s in self.services)


def make_cluster(
    name: str = "pop-0",
    kind: ClusterType = ClusterType.POP,
    num_vips: int = 149,
    dips_per_vip: int = 16,
    num_tors: int = 16,
    duration_model: Optional[DurationModel] = None,
    ipv6: Optional[bool] = None,
) -> Cluster:
    """Build a synthetic cluster with deterministic addressing.

    Defaults reproduce the paper's PoP trace used in §3.2 and §6.2:
    149 VIPs at 18.7 K new connections/min/VIP (``VipService``'s rate),
    Hadoop flow durations.  Backends default to IPv6 (as observed in §6.1)
    and cache-style durations.
    """
    if num_vips <= 0 or dips_per_vip <= 0:
        raise ValueError("need at least one VIP and one DIP per VIP")
    if ipv6 is None:
        ipv6 = kind is ClusterType.BACKEND
    if duration_model is None:
        duration_model = CACHE if kind is ClusterType.BACKEND else HADOOP
    services: List[VipService] = []
    for v in range(num_vips):
        if ipv6:
            vip = VirtualIP(ip=_VIP_BASE_V6 + v, port=80, v6=True)
            dips = [
                DirectIP(ip=_DIP_BASE_V6 + v * 4096 + d, port=8080, v6=True)
                for d in range(dips_per_vip)
            ]
        else:
            vip = VirtualIP(ip=_VIP_BASE_V4 + v, port=80)
            dips = [
                DirectIP(ip=_DIP_BASE_V4 + v * 4096 + d, port=8080)
                for d in range(dips_per_vip)
            ]
        services.append(VipService(vip=vip, dips=dips, duration_model=duration_model))
    return Cluster(name=name, kind=kind, num_tors=num_tors, services=services)


def spare_pool(cluster: Cluster, spares_per_vip: int = 8) -> Dict[VirtualIP, List[DirectIP]]:
    """Fresh DIPs available for additions, per VIP (deterministic)."""
    spares: Dict[VirtualIP, List[DirectIP]] = {}
    for idx, service in enumerate(cluster.services):
        first = service.dips[0]
        base = first.ip + 2048  # disjoint from the initial pool's block
        spares[service.vip] = [
            DirectIP(ip=base + d, port=first.port, v6=first.v6)
            for d in range(spares_per_vip)
        ]
    return spares
