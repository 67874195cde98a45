"""Network-wide SilkRoad with switch failover (§5.3 deployment + §7).

Every switch of the deployment announces every VIP and keeps its *own*
ConnTable; the fabric ECMP-splits flows across the alive switches (with
resilient hashing, so only a failed switch's flows move).  When a switch
dies:

* its connections re-hash to surviving switches, which share the same
  latest VIPTable — so connections that were using the *latest* pool
  version map identically and keep PCC;
* connections pinned to an *older* version lose their ConnTable state with
  the switch and re-hash under the current pool — they may break, exactly
  like losing an SLB would (§7, "Handle switch failures").

A failed switch may later be *revived* (:meth:`FabricSilkRoad.revive_switch`):
the revived switch boots with empty tables and must re-sync its VIPTable to
the fleet's current pools before rejoining ECMP — updates pushed while it
was dead are tracked in ``missed_updates`` and resolved by the re-sync, so
a stale-version switch can never serve traffic.

:class:`FabricSilkRoad` implements the flow-level
:class:`~repro.netsim.simulator.LoadBalancer` interface so the failure
scenario replays under the standard harness with either replay driver.

This is the *oracle-triggered* failure model (failures fire exactly when
scheduled, flows move instantly).  :mod:`repro.deploy.fleet` builds the
realistic control plane on top: heartbeat-based detection latency,
blackholes until detection, capacity-aware shedding and PCC auditing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..baselines.ecmp import ResilientHashTable
from ..core.config import SilkRoadConfig
from ..core.silkroad import SilkRoadSwitch
from ..netsim.events import EventQueue
from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer, PRIO_INTERNAL
from ..netsim.updates import UpdateEvent, UpdateKind


@dataclass(frozen=True)
class _SwitchId:
    """A hashable stand-in so the resilient table can ECMP over switches."""

    index: int

    # ResilientHashTable hashes str(member); give it a stable name.
    def __str__(self) -> str:
        return f"switch-{self.index}"


class FabricSilkRoad(LoadBalancer):
    """A layer of SilkRoad switches behind fabric ECMP."""

    def __init__(
        self,
        num_switches: int = 4,
        config: SilkRoadConfig = SilkRoadConfig(),
        name: str = "fabric-silkroad",
        ecmp_slots: int = 256,
    ) -> None:
        if num_switches <= 0:
            raise ValueError("need at least one switch")
        self.name = name
        self.config = config
        self.switches: List[SilkRoadSwitch] = [
            SilkRoadSwitch(config, name=f"{name}-{i}") for i in range(num_switches)
        ]
        self._ids = [_SwitchId(i) for i in range(num_switches)]
        self._ecmp = ResilientHashTable(self._ids, num_slots=ecmp_slots)
        self._alive: Set[int] = set(range(num_switches))
        self._owner: Dict[bytes, int] = {}  # conn key -> switch index
        self._conns: Dict[bytes, Connection] = {}
        self._scheduled_failures: List[Tuple[int, float]] = []  # before bind
        self._scheduled_revivals: List[Tuple[int, float]] = []  # before bind
        # The fleet's authoritative view of each VIP's current pool, kept in
        # lockstep with the update stream.  A revived switch re-syncs its
        # VIPTable from here before rejoining ECMP.
        self._pools: Dict[VirtualIP, List[DirectIP]] = {}
        # Updates a dead switch missed, per switch index.  Purely explicit
        # bookkeeping: a revived switch never replays these one by one — it
        # boots empty and announces the *current* pools — but tracking them
        # makes the staleness visible to tests and reports.
        self.missed_updates: Dict[int, List[UpdateEvent]] = {}
        self._generations = [0] * num_switches
        self.failovers = 0
        self.revivals = 0
        self.failed_over_connections = 0
        self.failed_back_connections = 0

    # ------------------------------------------------------------------

    def announce_vip(self, vip: VirtualIP, dips: Sequence[DirectIP]) -> None:
        self._pools[vip] = list(dips)
        for switch in self.switches:
            switch.announce_vip(vip, dips)

    def bind(self, queue: EventQueue) -> None:
        super().bind(queue)
        for switch in self.switches:
            switch.bind(queue)
        for index, at in self._scheduled_failures:
            queue.schedule(at, lambda i=index: self.fail_switch(i), PRIO_INTERNAL)
        self._scheduled_failures.clear()
        for index, at in self._scheduled_revivals:
            queue.schedule(at, lambda i=index: self.revive_switch(i), PRIO_INTERNAL)
        self._scheduled_revivals.clear()

    # ------------------------------------------------------------------
    # LoadBalancer interface
    # ------------------------------------------------------------------

    def _pick(self, key: bytes) -> int:
        return self._ecmp.lookup(key).index

    def on_connection_arrival(self, conn: Connection) -> None:
        index = self._pick(conn.key)
        self._owner[conn.key] = index
        self._conns[conn.key] = conn
        self.switches[index].on_connection_arrival(conn)

    def on_connection_end(self, conn: Connection) -> None:
        index = self._owner.pop(conn.key, None)
        self._conns.pop(conn.key, None)
        if index is not None:
            self.switches[index].on_connection_end(conn)

    def apply_update(self, event: UpdateEvent) -> None:
        # Maintain the fleet-level pool mirror first (guarded like the
        # baseline ECMP balancer, so a stray duplicate event is a no-op).
        pool = self._pools.get(event.vip)
        if pool is not None:
            if event.kind is UpdateKind.REMOVE:
                if event.dip not in pool:
                    return
                pool.remove(event.dip)
            else:
                if event.dip in pool:
                    return
                pool.append(event.dip)
        # The operator pushes the update to every alive switch; each runs
        # its own 3-step protocol against its own pending connections.  A
        # dead switch misses it — tracked so the staleness is explicit.
        for index in range(len(self.switches)):
            if index in self._alive:
                self.switches[index].apply_update(event)
            else:
                self.missed_updates.setdefault(index, []).append(event)

    def finalize(self) -> None:
        for index in sorted(self._alive):
            self.switches[index].finalize()

    # ------------------------------------------------------------------
    # Failure injection / recovery
    # ------------------------------------------------------------------

    def fail_switch(self, index: int) -> int:
        """Kill a switch now; its flows re-ECMP to the survivors.

        Returns the number of connections failed over.
        """
        if index not in self._alive:
            raise ValueError(f"switch {index} is not alive")
        if len(self._alive) == 1:
            raise ValueError("cannot fail the last switch")
        self._alive.discard(index)
        self._ecmp.remove(self._ids[index])
        self.failovers += 1
        moved = 0
        now = self.queue.now
        for key, owner in list(self._owner.items()):
            if owner != index:
                continue
            conn = self._conns[key]
            if not conn.active_at(now):
                continue
            new_index = self._pick(key)
            self._owner[key] = new_index
            # The surviving switch sees the flow as new traffic: ConnTable
            # miss, VIPTable decides with the *current* version.  Replaying
            # it through the arrival path models exactly that (including
            # learning and re-installation) — unless the survivor still
            # holds the flow's own entry from an earlier ownership stint,
            # in which case the packets hit it and keep the pinned version.
            survivor = self.switches[new_index]
            if not survivor.resume_connection(conn):
                survivor.on_connection_arrival(conn)
            moved += 1
        self.failed_over_connections += moved
        return moved

    def revive_switch(self, index: int) -> int:
        """Bring a failed switch back; returns connections re-homed to it.

        The revived switch is a *fresh* instance: its ConnTable is empty
        and its VIPTable is re-synced to the current pools before the
        switch re-enters ECMP — a stale-version announcement would re-break
        PCC for every flow whose slots the rejoin steals.  Flows whose ECMP
        slots the rejoined switch takes back move like a failover: ended on
        their interim owner, replayed as new traffic on the revived switch.
        """
        if index in self._alive:
            raise ValueError(f"switch {index} is already alive")
        self._generations[index] += 1
        fresh = SilkRoadSwitch(
            self.config, name=f"{self.name}-{index}r{self._generations[index]}"
        )
        # Step 1 — state re-learn: announce every VIP at its *current*
        # pool.  This is what resolves the updates the switch missed while
        # dead; it must complete before ECMP sees the switch again.
        for vip, dips in self._pools.items():
            fresh.announce_vip(vip, tuple(dips))
        self.missed_updates.pop(index, None)
        if hasattr(self, "queue"):
            fresh.bind(self.queue)
        self.switches[index] = fresh
        # Step 2 — rejoin ECMP and take back this switch's slots.
        self._alive.add(index)
        self._ecmp.add(self._ids[index])
        self.revivals += 1
        moved = 0
        now = self.queue.now if hasattr(self, "queue") else 0.0
        for key, conn in self._conns.items():
            if not conn.active_at(now):
                continue
            owner = self._owner[key]
            new_index = self._pick(key)
            if new_index == owner:
                continue
            self.switches[owner].on_connection_end(conn)
            self._owner[key] = new_index
            new_owner = self.switches[new_index]
            if not new_owner.resume_connection(conn):
                new_owner.on_connection_arrival(conn)
            moved += 1
        self.failed_back_connections += moved
        return moved

    def schedule_failure(self, index: int, at: float) -> None:
        """Arrange for ``fail_switch(index)`` at simulation time ``at``.

        Usable before the fabric is bound to the simulation queue (the
        failure is then scheduled at bind time).
        """
        if hasattr(self, "queue"):
            self.queue.schedule(at, lambda: self.fail_switch(index), PRIO_INTERNAL)
        else:
            self._scheduled_failures.append((index, at))

    def schedule_revival(self, index: int, at: float) -> None:
        """Arrange for ``revive_switch(index)`` at simulation time ``at``."""
        if hasattr(self, "queue"):
            self.queue.schedule(at, lambda: self.revive_switch(index), PRIO_INTERNAL)
        else:
            self._scheduled_revivals.append((index, at))

    # ------------------------------------------------------------------

    def alive_switches(self) -> List[int]:
        return sorted(self._alive)

    def report(self) -> Dict[str, float]:
        report: Dict[str, float] = {
            "failovers": float(self.failovers),
            "revivals": float(self.revivals),
            "failed_over_connections": float(self.failed_over_connections),
            "failed_back_connections": float(self.failed_back_connections),
            "alive_switches": float(len(self._alive)),
            "missed_updates": float(
                sum(len(events) for events in self.missed_updates.values())
            ),
        }
        # Only alive switches hold *live* fleet state; a dead switch's
        # ConnTable died with it and must not inflate the fleet totals.
        live_entries = 0
        dead_entries = 0
        for index, switch in enumerate(self.switches):
            entries = len(switch.conn_table)
            if index in self._alive:
                report[f"{switch.name}_conn_entries"] = float(entries)
                live_entries += entries
            else:
                dead_entries += entries
        report["fleet_conn_entries"] = float(live_entries)
        report["dead_conn_entries"] = float(dead_entries)
        return report
