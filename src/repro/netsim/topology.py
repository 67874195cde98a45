"""Three-layer data-center topology with ECMP (Fig 11, §5.3).

SilkRoad's network-wide deployment assigns each VIP to a *layer* (ToR,
aggregation, or core); traffic for the VIP ECMP-splits across the switches
of that layer, so the per-switch connection-state load is the VIP's total
divided by the layer width.  This module models just enough of the fabric
for that assignment problem: switch inventories and SRAM budgets per
layer, and the VIP-to-layer placement :mod:`repro.deploy.assignment` fills.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from .packet import VirtualIP


class Layer(enum.Enum):
    TOR = "tor"
    AGG = "agg"
    CORE = "core"


@dataclass(frozen=True)
class Switch:
    """One switch in the fabric."""

    name: str
    layer: Layer
    sram_budget_bytes: int = 50_000_000  # 50 MB class ASIC (Table 1)
    capacity_gbps: float = 6400.0  # 6.4 Tbps class ASIC


@dataclass
class Fabric:
    """A leaf-spine/three-layer fabric."""

    tors: List[Switch]
    aggs: List[Switch]
    cores: List[Switch]

    @classmethod
    def build(
        cls,
        num_tors: int = 16,
        num_aggs: int = 4,
        num_cores: int = 2,
        tor_sram_bytes: int = 50_000_000,
        agg_sram_bytes: int = 50_000_000,
        core_sram_bytes: int = 100_000_000,
    ) -> "Fabric":
        if min(num_tors, num_aggs, num_cores) <= 0:
            raise ValueError("every layer needs at least one switch")
        return cls(
            tors=[
                Switch(f"tor-{i}", Layer.TOR, tor_sram_bytes) for i in range(num_tors)
            ],
            aggs=[
                Switch(f"agg-{i}", Layer.AGG, agg_sram_bytes) for i in range(num_aggs)
            ],
            cores=[
                Switch(f"core-{i}", Layer.CORE, core_sram_bytes)
                for i in range(num_cores)
            ],
        )

    def layer_switches(self, layer: Layer) -> List[Switch]:
        if layer is Layer.TOR:
            return self.tors
        if layer is Layer.AGG:
            return self.aggs
        return self.cores

    def all_switches(self) -> List[Switch]:
        return self.tors + self.aggs + self.cores


@dataclass
class VipPlacement:
    """Network-wide assignment of VIPs to layers."""

    fabric: Fabric
    assignment: Dict[VirtualIP, Layer] = field(default_factory=dict)

    def assign(self, vip: VirtualIP, layer: Layer) -> None:
        self.assignment[vip] = layer
