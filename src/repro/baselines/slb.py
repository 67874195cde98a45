"""Software load balancers (Ananta/Maglev class), §2.2.

An SLB tier keeps both VIPTable and ConnTable in server software.  It
ensures PCC trivially (every connection is pinned in a hash map at first
packet) but costs servers: the paper's arithmetic is

* 12 Mpps per SLB machine (8 cores, 52-byte packets — Maglev's number),
* 10 Gb/s NIC line rate per machine,
* ~200 W and ~3 K USD per machine (Intel E5-2660 class), versus
* ~10 Gpps / 6.4 Tb/s, ~300 W and ~10 K USD for one switching ASIC,

whence "two orders of magnitude saving" and Figure 13's SLB-replacement
ratios.  :func:`slbs_required` implements that sizing rule.

:class:`SoftwareLoadBalancer` implements the flow-level interface: zero PCC
violations by construction, with added per-packet latency and the capacity
accounting above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer
from ..netsim.updates import UpdateEvent, UpdateKind
from .maglev import MaglevTable

#: Capacity/cost constants from the paper (§2.2, §6.1).
SLB_MPPS = 12.0e6  # packets/s per SLB machine
SLB_NIC_GBPS = 10.0  # line rate per SLB machine
SLB_WATTS = 200.0
SLB_COST_USD = 3000.0
ASIC_PPS = 10.0e9  # 6.4 Tbps ASIC at 52-byte packets ~ 10 Gpps
ASIC_GBPS = 6400.0
ASIC_WATTS = 300.0
ASIC_COST_USD = 10_000.0
#: Median added latency of batching SLB dataplanes (50 us - 1 ms range).
SLB_LATENCY_S = 300e-6
#: Connections one SilkRoad switch holds in Figure 13's sizing rule.
SILKROAD_CONNS_PER_SWITCH = 10e6


def slbs_required(peak_pps: float, peak_gbps: float) -> int:
    """SLB machines needed for a cluster's peak load (Figure 13's rule)."""
    if peak_pps < 0 or peak_gbps < 0:
        raise ValueError("loads must be non-negative")
    by_pps = math.ceil(peak_pps / SLB_MPPS)
    by_bps = math.ceil(peak_gbps / SLB_NIC_GBPS)
    return max(by_pps, by_bps, 1)


def silkroads_required(peak_conns: float) -> int:
    """SilkRoad switches needed to hold a cluster's connection state."""
    if peak_conns < 0:
        raise ValueError("connections must be non-negative")
    return max(math.ceil(peak_conns / SILKROAD_CONNS_PER_SWITCH), 1)


@dataclass(frozen=True)
class CostComparison:
    """Power/cost of processing the same traffic in SLBs vs one ASIC."""

    slb_count: float
    slb_watts: float
    slb_cost_usd: float
    asic_watts: float = ASIC_WATTS
    asic_cost_usd: float = ASIC_COST_USD

    @property
    def power_ratio(self) -> float:
        """SLB power / ASIC power (paper: ~500x)."""
        return self.slb_watts / self.asic_watts

    @property
    def cost_ratio(self) -> float:
        """SLB capital cost / ASIC capital cost (paper: ~250x)."""
        return self.slb_cost_usd / self.asic_cost_usd


def cost_of_equal_throughput() -> CostComparison:
    """The §6.1 economics: SLBs matching one 6.4 Tbps ASIC's 10 Gpps."""
    slb_count = ASIC_PPS / SLB_MPPS
    return CostComparison(
        slb_count=slb_count,
        slb_watts=slb_count * SLB_WATTS,
        slb_cost_usd=slb_count * SLB_COST_USD,
    )


class SoftwareLoadBalancer(LoadBalancer):
    """An SLB tier: software ConnTable + Maglev VIPTable; PCC by construction.

    The tier pins every connection at first packet; DIP-pool updates lock
    the (software) VIPTable, so the update is atomic with respect to
    connection insertion — the property switch CPUs cannot give (§2.1).
    """

    def __init__(self, name: str = "slb", seed: int = 0x51B0) -> None:
        self.name = name
        self._seed = seed
        self._pools: Dict[VirtualIP, List[DirectIP]] = {}
        self._tables: Dict[VirtualIP, MaglevTable] = {}
        self._conn_table: Dict[bytes, DirectIP] = {}
        # Keyed by connection key: insertion-ordered iteration keeps the
        # REMOVE-branch breakage sweep deterministic across processes.
        self._active: Dict[VirtualIP, Dict[bytes, Connection]] = {}
        self.packets_estimated = 0.0
        self.peak_connections = 0

    def announce_vip(self, vip: VirtualIP, dips) -> None:
        if vip in self._pools:
            raise ValueError(f"VIP already announced: {vip}")
        self._pools[vip] = list(dips)
        self._tables[vip] = MaglevTable(list(dips), seed=self._seed)

    def select(
        self, vip: VirtualIP, key: bytes, key_hash: Optional[int] = None
    ) -> DirectIP:
        return self._tables[vip].lookup(key, key_hash)

    # -- LoadBalancer interface -------------------------------------------

    def on_connection_arrival(self, conn: Connection) -> None:
        dip = self.select(conn.vip, conn.key, conn.key_hash)
        self._conn_table[conn.key] = dip
        conn.record_decision(self.queue.now, dip)
        self._active.setdefault(conn.vip, {})[conn.key] = conn
        self.peak_connections = max(self.peak_connections, len(self._conn_table))

    def on_connection_end(self, conn: Connection) -> None:
        self._conn_table.pop(conn.key, None)
        self._active.get(conn.vip, {}).pop(conn.key, None)

    def apply_update(self, event: UpdateEvent) -> None:
        pool = self._pools[event.vip]
        if event.kind is UpdateKind.REMOVE:
            if event.dip not in pool:
                return
            pool.remove(event.dip)
            # Connections on the removed DIP break with the server.
            for conn in self._active.get(event.vip, {}).values():
                if self._conn_table.get(conn.key) == event.dip:
                    conn.broken_by_removal = True
        else:
            if event.dip in pool:
                return
            pool.append(event.dip)
        if not pool:
            raise RuntimeError(f"pool of {event.vip} drained empty")
        self._tables[event.vip].rebuild(pool)
        # Pinned connections keep their entries: PCC holds.
