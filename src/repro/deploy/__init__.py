"""Network-wide deployment: VIP-to-layer assignment and failure handling."""

from .assignment import AssignmentResult, VipDemand, assign_vips
from .failures import (
    expected_breakage_after_failover,
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
    "expected_breakage_after_failover",
    "health_check_bandwidth_bps",
    "switch_failure_breakage",
]
