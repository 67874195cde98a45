"""Flow-level network simulation substrate.

Everything the evaluation needs below the load balancers themselves:
packets/addresses, a deterministic event kernel, connection workloads,
DIP-pool update streams, cluster and fabric models, and the simulation
driver that replays workloads against any load-balancer implementation.
"""

from .arrivals import (
    ArrivalGenerator,
    ConnectionColumns,
    VipWorkload,
    uniform_vip_workloads,
)
from .cluster import (
    Cluster,
    ClusterType,
    VipService,
    make_cluster,
    spare_pool,
)
from .events import EventHandle, EventQueue
from .flows import CACHE, HADOOP, Connection, DurationModel
from .packet import (
    DirectIP,
    FiveTuple,
    IPV4_KEY_BYTES,
    IPV6_KEY_BYTES,
    TCP,
    TupleFactory,
    UDP,
    VirtualIP,
    five_tuple_for,
    parse_ip,
)
from .simulator import (
    FlowSimulator,
    LoadBalancer,
    PRIO_ARRIVAL,
    PRIO_END,
    PRIO_INTERNAL,
    PRIO_UPDATE,
    SimulationReport,
    traffic_fraction_at,
)
from .topology import Fabric, Layer, Switch, VipPlacement
from .updates import (
    DOWNTIME_BY_CAUSE,
    DowntimeModel,
    ROOT_CAUSE_SHARES,
    RollingUpgrade,
    RootCause,
    UpdateEvent,
    UpdateGenerator,
    UpdateKind,
)

__all__ = [
    "ArrivalGenerator",
    "CACHE",
    "Cluster",
    "ClusterType",
    "Connection",
    "ConnectionColumns",
    "DOWNTIME_BY_CAUSE",
    "DirectIP",
    "DowntimeModel",
    "DurationModel",
    "EventHandle",
    "EventQueue",
    "Fabric",
    "FiveTuple",
    "FlowSimulator",
    "HADOOP",
    "IPV4_KEY_BYTES",
    "IPV6_KEY_BYTES",
    "Layer",
    "LoadBalancer",
    "PRIO_ARRIVAL",
    "PRIO_END",
    "PRIO_INTERNAL",
    "PRIO_UPDATE",
    "ROOT_CAUSE_SHARES",
    "RollingUpgrade",
    "RootCause",
    "SimulationReport",
    "Switch",
    "TCP",
    "TupleFactory",
    "UDP",
    "UpdateEvent",
    "UpdateGenerator",
    "UpdateKind",
    "VipPlacement",
    "VipService",
    "VipWorkload",
    "VirtualIP",
    "five_tuple_for",
    "make_cluster",
    "parse_ip",
    "spare_pool",
    "traffic_fraction_at",
    "uniform_vip_workloads",
]
