"""SilkRoad core: the paper's primary contribution.

:class:`SilkRoadSwitch` is the public entry point — a stateful L4 load
balancer whose ConnTable, VIPTable, DIPPoolTable and TransitTable all live
in (modelled) switching-ASIC structures, with per-connection consistency
guaranteed across DIP-pool updates by the 3-step update protocol.
"""

from .config import SilkRoadConfig
from .conn_table import ConnTable
from .control_plane import SwitchCpu
from .dip_pool_table import DipPool, DipPoolTable, VersionsExhausted
from .pcc_update import Phase, UpdateCoordinator, UpdateTimings
from .silkroad import SilkRoadSwitch
from .sram_cost import EntryLayout, memory_saving
from .transit_table import TransitTable
from .verify import AuditReport, InvariantViolation, audit_switch
from .vip_table import VipEntry, VipTable

__all__ = [
    "ConnTable",
    "DipPool",
    "DipPoolTable",
    "EntryLayout",
    "Phase",
    "SilkRoadConfig",
    "SilkRoadSwitch",
    "SwitchCpu",
    "TransitTable",
    "UpdateCoordinator",
    "UpdateTimings",
    "VersionsExhausted",
    "VipEntry",
    "VipTable",
    "AuditReport",
    "InvariantViolation",
    "audit_switch",
    "memory_saving",
]
