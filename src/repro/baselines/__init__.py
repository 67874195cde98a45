"""Baseline load balancers the paper compares against.

* :mod:`~repro.baselines.ecmp` — stateless ECMP and resilient hashing,
* :mod:`~repro.baselines.maglev` — Maglev consistent hashing,
* :mod:`~repro.baselines.slb` — the software-load-balancer tier (Ananta /
  Maglev class) with its capacity/cost model,
* :mod:`~repro.baselines.duet` — Duet (VIPTable in switches, ConnTable in
  SLBs) with its three migrate-back policies.
"""

from .duet import DuetLoadBalancer, MigrationPolicy
from .ecmp import EcmpLoadBalancer, ResilientHashTable
from .maglev import DEFAULT_TABLE_SIZE, MaglevTable
from .slb import (
    ASIC_COST_USD,
    ASIC_GBPS,
    ASIC_PPS,
    ASIC_WATTS,
    CostComparison,
    SLB_COST_USD,
    SLB_LATENCY_S,
    SLB_MPPS,
    SLB_NIC_GBPS,
    SLB_WATTS,
    SoftwareLoadBalancer,
    cost_of_equal_throughput,
    silkroads_required,
    slbs_required,
)

__all__ = [
    "ASIC_COST_USD",
    "ASIC_GBPS",
    "ASIC_PPS",
    "ASIC_WATTS",
    "CostComparison",
    "DEFAULT_TABLE_SIZE",
    "DuetLoadBalancer",
    "EcmpLoadBalancer",
    "MaglevTable",
    "MigrationPolicy",
    "ResilientHashTable",
    "SLB_COST_USD",
    "SLB_LATENCY_S",
    "SLB_MPPS",
    "SLB_NIC_GBPS",
    "SLB_WATTS",
    "SoftwareLoadBalancer",
    "cost_of_equal_throughput",
    "silkroads_required",
    "slbs_required",
]
