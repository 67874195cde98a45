"""Flow-level simulation driver.

Replays a connection workload plus a DIP-pool update stream against any
load-balancer implementation (SilkRoad, Duet, an SLB tier, plain ECMP) and
reports per-connection-consistency violations and system load — the
methodology behind Figures 5, 16, 17 and 18 of the paper.

The driver is deliberately thin: load balancers are *event-driven* objects
that receive arrivals, expiries and updates, may schedule their own internal
events (learning-filter flushes, CPU insertions, 3-step update transitions)
on the shared :class:`~repro.netsim.events.EventQueue`, and record every
forwarding-decision change onto the affected
:class:`~repro.netsim.flows.Connection`.  PCC is then judged from the
decision logs under the paper's conservative assumption that packets arrive
continuously for the whole flow lifetime.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .events import EventQueue
from .flows import Connection
from .updates import UpdateEvent


class LoadBalancer(abc.ABC):
    """Interface every simulated load-balancing system implements."""

    name: str = "lb"

    def bind(self, queue: EventQueue) -> None:
        """Attach to the simulation's event queue before the run starts."""
        self.queue = queue

    @abc.abstractmethod
    def on_connection_arrival(self, conn: Connection) -> None:
        """First packet of ``conn`` hits the system (at ``queue.now``).

        Implementations must call ``conn.record_decision`` with the DIP the
        first packet is forwarded to, and again whenever the decision for
        the connection's future packets changes.
        """

    @abc.abstractmethod
    def on_connection_end(self, conn: Connection) -> None:
        """The connection's last packet has been sent (idle timeout next)."""

    @abc.abstractmethod
    def apply_update(self, event: UpdateEvent) -> None:
        """The operator requests a DIP-pool update."""

    def finalize(self) -> None:
        """Called once after the horizon; flush any internal state."""


# Event priorities: updates before arrivals before ends at equal timestamps,
# internal LB events in-between, so ties resolve the way hardware would
# (a table update committed at time t affects the packet arriving at t).
PRIO_UPDATE = 0
PRIO_INTERNAL = 1
PRIO_ARRIVAL = 2
PRIO_END = 3


@dataclass
class SimulationReport:
    """Outcome of one flow-level simulation run."""

    name: str
    horizon_s: float
    total_connections: int
    measured_connections: int
    pcc_violations: int

    @property
    def violation_fraction(self) -> float:
        """Fraction of measured connections that broke PCC."""
        if self.measured_connections == 0:
            return 0.0
        return self.pcc_violations / self.measured_connections

    @property
    def violations_per_minute(self) -> float:
        if self.horizon_s <= 0:
            return 0.0
        return self.pcc_violations / (self.horizon_s / 60.0)

    def summary(self) -> str:
        return (
            f"{self.name}: {self.pcc_violations}/{self.measured_connections} "
            f"connections broke PCC ({100 * self.violation_fraction:.4f}%), "
            f"{self.violations_per_minute:.2f}/min over {self.horizon_s:.0f}s"
        )


def _finish(
    lb: LoadBalancer, connections: Sequence[Connection], horizon_s: float
) -> SimulationReport:
    """The tail both replay drivers share once the horizon is reached:
    finalize the load balancer and judge PCC from the decision logs."""
    lb.finalize()
    measured = [c for c in connections if c.start >= 0.0]
    violations = sum(1 for c in measured if c.pcc_violated)
    return SimulationReport(
        name=lb.name,
        horizon_s=horizon_s,
        total_connections=len(connections),
        measured_connections=len(measured),
        pcc_violations=violations,
    )


class FlowSimulator:
    """Runs one load balancer against a workload and an update stream.

    ``faults``, when given, is duck-typed as a
    :class:`~repro.faults.injector.FaultInjector`: after the load balancer
    is bound to the event queue, ``faults.attach(lb, queue)`` schedules the
    fault plan's events alongside the workload.
    """

    def __init__(self, lb: LoadBalancer, faults: Optional[object] = None) -> None:
        self.lb = lb
        self.faults = faults
        self.queue = EventQueue()

    def run(
        self,
        connections: Sequence[Connection],
        updates: Sequence[UpdateEvent] = (),
        horizon_s: Optional[float] = None,
    ) -> SimulationReport:
        """Replay the workload; returns the PCC/load report.

        Connections with negative start times are *warm-up* (pre-established
        before the measurement window); they are replayed but excluded from
        the violation counts, mirroring the paper's replay methodology.
        """
        if horizon_s is None:
            horizon_s = max(
                [c.start for c in connections] + [u.time for u in updates] + [0.0]
            )
        queue = self.queue
        lb = self.lb
        lb.bind(queue)

        # Warm-up connections have negative start times; rewind the clock so
        # everything (queue.now, decision timestamps, connection lifetimes)
        # shares one time frame.
        earliest = min((c.start for c in connections), default=0.0)
        queue.now = min(earliest, 0.0)

        if self.faults is not None:
            self.faults.attach(lb, queue)

        def make_arrival(conn: Connection):
            return lambda: lb.on_connection_arrival(conn)

        def make_end(conn: Connection):
            return lambda: lb.on_connection_end(conn)

        def make_update(event: UpdateEvent):
            return lambda: lb.apply_update(event)

        for conn in connections:
            queue.schedule(conn.start, make_arrival(conn), PRIO_ARRIVAL)
            queue.schedule(conn.end, make_end(conn), PRIO_END)
        for event in updates:
            if event.time < 0:
                raise ValueError("update events must have non-negative times")
            queue.schedule(event.time, make_update(event), PRIO_UPDATE)

        queue.run_until(horizon_s)
        return _finish(lb, connections, horizon_s)


def traffic_fraction_at(
    connections: Sequence[Connection],
    intervals_by_vip: Dict,
    horizon_s: float,
) -> float:
    """Fraction of total traffic volume handled inside given time intervals.

    ``intervals_by_vip`` maps a VIP to a list of ``(t_start, t_end)`` windows
    during which its traffic was handled by the component of interest (e.g.
    the SLB tier in the Duet experiments, Figure 5a).  Volume is rate x
    overlap of each connection's lifetime with its VIP's windows, clipped to
    the measurement horizon.
    """
    total = 0.0
    inside = 0.0
    for conn in connections:
        life_start = max(conn.start, 0.0)
        life_end = min(conn.end, horizon_s)
        if life_end <= life_start:
            continue
        volume_rate = conn.rate_bps
        total += volume_rate * (life_end - life_start)
        for t0, t1 in intervals_by_vip.get(conn.vip, ()):  # may be empty
            lo = max(life_start, t0)
            hi = min(life_end, t1)
            if hi > lo:
                inside += volume_rate * (hi - lo)
    if total == 0.0:
        return 0.0
    return inside / total
