"""Network-wide VIP-to-layer assignment (§5.3, Figure 11).

Deploying SilkRoad at every switch makes the *placement* of each VIP's
load-balancing function a choice: handle a VIP at the ToR, aggregation, or
core layer, splitting its traffic (and its connection state) via ECMP over
the switches of that layer.  The paper casts this as a bin-packing problem:

    minimize the maximum SRAM utilization across switches, subject to each
    switch's forwarding capacity and SRAM budget.

This module implements the demand model and a greedy longest-processing-
time-style heuristic (exact bin packing is NP-hard), plus incremental
deployment where only a subset of switches is SilkRoad-enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.sram_cost import conn_entry
from ..netsim.packet import VirtualIP
from ..netsim.topology import Fabric, Layer, Switch, VipPlacement


@dataclass(frozen=True)
class VipDemand:
    """Placement-relevant demand of one VIP."""

    vip: VirtualIP
    connections: float  # peak simultaneous connections
    traffic_gbps: float

    def sram_bytes(self) -> int:
        """ConnTable SRAM the VIP's connections need (packed entries)."""
        return conn_entry().bytes_for(int(self.connections))


@dataclass
class AssignmentResult:
    """Outcome of the bin-packing heuristic."""

    placement: VipPlacement
    sram_used: Dict[str, float]  # per-switch bytes
    traffic_used: Dict[str, float]  # per-switch Gbps
    unplaced: List[VipDemand] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.unplaced

    def max_sram_utilization(self, fabric: Fabric) -> float:
        util = 0.0
        for switch in fabric.all_switches():
            used = self.sram_used.get(switch.name, 0.0)
            if switch.sram_budget_bytes > 0:
                util = max(util, used / switch.sram_budget_bytes)
        return util


def assign_vips(
    fabric: Fabric,
    demands: Sequence[VipDemand],
    enabled: Optional[Dict[Layer, Sequence[Switch]]] = None,
    sram_headroom: float = 1.0,
) -> AssignmentResult:
    """Greedy min-max assignment of VIPs to fabric layers.

    VIPs are placed in decreasing SRAM-demand order; each goes to the layer
    that minimizes the resulting maximum per-switch SRAM utilization while
    respecting SRAM budgets (scaled by ``sram_headroom``) and forwarding
    capacity.  ``enabled`` restricts each layer to its SilkRoad-enabled
    switches (incremental deployment); a VIP's traffic then splits over
    only those switches.
    """
    if not 0.0 < sram_headroom <= 1.0:
        raise ValueError("sram_headroom must be in (0, 1]")
    layer_switches: Dict[Layer, List[Switch]] = {}
    for layer in Layer:
        switches = list((enabled or {}).get(layer, fabric.layer_switches(layer)))
        layer_switches[layer] = switches

    placement = VipPlacement(fabric=fabric)
    sram_used: Dict[str, float] = {s.name: 0.0 for s in fabric.all_switches()}
    traffic_used: Dict[str, float] = {s.name: 0.0 for s in fabric.all_switches()}
    unplaced: List[VipDemand] = []

    ordered = sorted(demands, key=lambda d: d.sram_bytes(), reverse=True)
    for demand in ordered:
        need_sram = demand.sram_bytes()
        best_layer: Optional[Layer] = None
        best_score = float("inf")
        for layer in Layer:
            switches = layer_switches[layer]
            if not switches:
                continue
            share_sram = need_sram / len(switches)
            share_gbps = demand.traffic_gbps / len(switches)
            feasible = True
            worst = 0.0
            for switch in switches:
                new_sram = sram_used[switch.name] + share_sram
                new_traffic = traffic_used[switch.name] + share_gbps
                if new_sram > switch.sram_budget_bytes * sram_headroom:
                    feasible = False
                    break
                if new_traffic > switch.capacity_gbps:
                    feasible = False
                    break
                worst = max(worst, new_sram / switch.sram_budget_bytes)
            if feasible and worst < best_score:
                best_score = worst
                best_layer = layer
        if best_layer is None:
            unplaced.append(demand)
            continue
        switches = layer_switches[best_layer]
        share_sram = need_sram / len(switches)
        share_gbps = demand.traffic_gbps / len(switches)
        for switch in switches:
            sram_used[switch.name] += share_sram
            traffic_used[switch.name] += share_gbps
        placement.assign(demand.vip, best_layer)

    return AssignmentResult(
        placement=placement,
        sram_used=sram_used,
        traffic_used=traffic_used,
        unplaced=unplaced,
    )
