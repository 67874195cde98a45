"""Network-wide deployment: VIP-to-layer assignment and failure handling."""

from .assignment import AssignmentResult, VipDemand, assign_vips
from .failures import (
    health_check_bandwidth_bps,
    switch_failure_breakage,
)
from .fleet import (
    FleetAuditReport,
    FleetController,
    FleetSilkRoad,
    audit_fleet,
)

__all__ = [
    "AssignmentResult",
    "FleetAuditReport",
    "FleetController",
    "FleetSilkRoad",
    "VipDemand",
    "assign_vips",
    "audit_fleet",
    "health_check_bandwidth_bps",
    "switch_failure_breakage",
]
