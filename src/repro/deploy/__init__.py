"""Network-wide deployment: VIP-to-layer assignment and failure handling."""

from ..core.health import BfdProber, health_check_bandwidth_bps
from .assignment import AssignmentResult, VipDemand, assign_vips
from .failures import expected_breakage_after_failover, switch_failure_breakage
from .fleet import (
    FleetAuditReport,
    FleetConfig,
    FleetController,
    FleetSilkRoad,
    audit_fleet,
)

__all__ = [
    "AssignmentResult",
    "BfdProber",
    "FleetAuditReport",
    "FleetConfig",
    "FleetController",
    "FleetSilkRoad",
    "VipDemand",
    "assign_vips",
    "audit_fleet",
    "expected_breakage_after_failover",
    "health_check_bandwidth_bps",
    "switch_failure_breakage",
]
