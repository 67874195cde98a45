"""Duet (Gandhi et al., SIGCOMM 2014): VIPTable in switches, ConnTable in
SLBs — and the migration dilemma of §3.2.

Duet keeps only the VIP -> DIP-pool ECMP mapping in switch ASICs.  To update
a DIP pool with per-connection consistency, the VIP's traffic must first be
*redirected to SLBs*, which pin ongoing connections in a software ConnTable,
and later *migrated back* to the switches.  When to migrate back is the
dilemma the paper measures (Figure 5):

* **Migrate-10min** (Duet's default): periodic, every ten minutes — high
  SLB load (up to ~74 % of traffic at 50 updates/min) and still ~0.3 %
  broken connections;
* **Migrate-1min**: less SLB load (~13 %), more violations (~1.4 %);
* **Migrate-PCC**: wait until every connection predating the last pool
  change has ended — no violations, but up to ~94 % of traffic in SLBs.

Violations occur at migrate-back: connections established under an older
pool re-hash under the switches' current pool.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple

from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer, PRIO_INTERNAL
from ..netsim.updates import UpdateEvent, UpdateKind
from .ecmp import ResilientHashTable


class MigrationPolicy(enum.Enum):
    """When a VIP returns from the SLB tier to the switches."""

    PERIODIC = "periodic"
    PCC_SAFE = "pcc-safe"


class DuetLoadBalancer(LoadBalancer):
    """Duet: stateless ECMP at switches + SLB detour around every update."""

    def __init__(
        self,
        name: str = "duet",
        policy: MigrationPolicy = MigrationPolicy.PERIODIC,
        migrate_period_s: float = 600.0,
        seed: int = 0xD0E7,
    ) -> None:
        if migrate_period_s <= 0:
            raise ValueError("migration period must be positive")
        self.name = name
        self.policy = policy
        self.migrate_period_s = migrate_period_s
        self._seed = seed
        # Switch ECMP groups rewrite only affected member slots on a change
        # (resilient hashing), so a single-DIP update disturbs ~1/N of the
        # keyspace — the disruption model behind Figure 5's magnitudes.
        self._tables: Dict[VirtualIP, ResilientHashTable] = {}
        self._pools: Dict[VirtualIP, List[DirectIP]] = {}
        # Insertion-ordered (dict-as-set): periodic migrate-back and
        # finalize() iterate this, and a hash-randomized set would reorder
        # re-hash decisions across processes under sharded replay.
        self._at_slb: Dict[VirtualIP, None] = {}
        self._slb_since: Dict[VirtualIP, float] = {}
        self._slb_intervals: Dict[VirtualIP, List[Tuple[float, float]]] = {}
        self._pinned: Dict[VirtualIP, Dict[bytes, DirectIP]] = {}
        #: PCC_SAFE: pinned keys whose pin differs from the current hash.
        self._unsafe: Dict[VirtualIP, Set[bytes]] = {}
        self._active: Dict[VirtualIP, Dict[bytes, Connection]] = {}
        self.migrations_to_slb = 0
        self.migrations_back = 0

    # ------------------------------------------------------------------

    def announce_vip(self, vip: VirtualIP, dips) -> None:
        if vip in self._pools:
            raise ValueError(f"VIP already announced: {vip}")
        self._pools[vip] = list(dips)
        self._tables[vip] = ResilientHashTable(list(dips), seed=self._seed)
        self._pinned[vip] = {}
        self._unsafe[vip] = set()
        self._active[vip] = {}
        self._slb_intervals[vip] = []

    def select(
        self, vip: VirtualIP, key: bytes, key_hash: Optional[int] = None
    ) -> DirectIP:
        """The ECMP hash both the switches and (for new flows) SLBs use."""
        return self._tables[vip].lookup(key, key_hash)

    # ------------------------------------------------------------------
    # LoadBalancer interface
    # ------------------------------------------------------------------

    def bind(self, queue) -> None:
        super().bind(queue)
        if self.policy is MigrationPolicy.PERIODIC:
            self._schedule_periodic(self.migrate_period_s)

    def _schedule_periodic(self, when: float) -> None:
        def fire() -> None:
            now = self.queue.now
            for vip in list(self._at_slb):
                self._migrate_back(vip, now)
            self._schedule_periodic(now + self.migrate_period_s)

        self.queue.schedule(when, fire, PRIO_INTERNAL)

    def on_connection_arrival(self, conn: Connection) -> None:
        vip, key = conn.vip, conn.key
        dip = self.select(vip, key, conn.key_hash)
        conn.record_decision(self.queue.now, dip)
        self._active[vip][key] = conn
        if vip in self._at_slb:
            # The SLB pins the flow at first packet; it used the current
            # pool, so the pin is consistent with the switches' hash.
            self._pinned[vip][key] = dip

    def on_connection_end(self, conn: Connection) -> None:
        vip, key = conn.vip, conn.key
        self._active.get(vip, {}).pop(key, None)
        self._pinned.get(vip, {}).pop(key, None)
        unsafe = self._unsafe.get(vip)
        if unsafe is not None and key in unsafe:
            unsafe.discard(key)
            self._maybe_safe_return(vip)

    def apply_update(self, event: UpdateEvent) -> None:
        now = self.queue.now
        vip = event.vip
        pool = self._pools[vip]
        if vip not in self._at_slb:
            self._migrate_to_slb(vip, now)
        # Apply the pool change (the SLB tier holds the flows meanwhile).
        if event.kind is UpdateKind.REMOVE:
            if event.dip not in pool or len(pool) <= 1:
                return
            pool.remove(event.dip)
            self._tables[vip].remove(event.dip)
            for key, conn in self._active[vip].items():
                if self._pinned[vip].get(key) == event.dip:
                    conn.broken_by_removal = True
        else:
            if event.dip in pool:
                return
            pool.append(event.dip)
            self._tables[vip].add(event.dip)
        self._refresh_unsafe(vip)
        self._maybe_safe_return(vip)

    def finalize(self) -> None:
        """Close every open SLB interval at the current time.

        The VIPs stay at the SLB (``migrations_to_slb - migrations_back``
        counts them); only their intervals end, so a second call finds
        nothing open.
        """
        now = self.queue.now
        for vip in self._at_slb:
            since = self._slb_since.pop(vip, None)
            if since is not None:
                self._slb_intervals[vip].append((since, now))

    # ------------------------------------------------------------------
    # Migration machinery
    # ------------------------------------------------------------------

    def _migrate_to_slb(self, vip: VirtualIP, now: float) -> None:
        self.migrations_to_slb += 1
        self._at_slb[vip] = None
        self._slb_since[vip] = now
        # The SLB observes (ideally, cf. footnote 2 of the paper) one packet
        # from every ongoing connection and pins it where it currently goes.
        pinned = self._pinned[vip]
        for key, conn in self._active[vip].items():
            current = conn.current_dip
            if current is not None:
                pinned[key] = current

    def _migrate_back(self, vip: VirtualIP, now: float) -> None:
        self.migrations_back += 1
        self._at_slb.pop(vip, None)
        self._slb_intervals[vip].append((self._slb_since.pop(vip), now))
        # Back at the switches, every flow re-hashes over the current pool;
        # flows pinned under an older pool may land elsewhere: PCC breaks.
        for key, conn in self._active[vip].items():
            dip = self.select(vip, key, conn.key_hash)
            conn.record_decision(now, dip)
        self._pinned[vip].clear()
        self._unsafe[vip].clear()

    def _refresh_unsafe(self, vip: VirtualIP) -> None:
        if self.policy is not MigrationPolicy.PCC_SAFE:
            return
        unsafe = self._unsafe[vip]
        unsafe.clear()
        active = self._active[vip]
        for key, pinned_dip in self._pinned[vip].items():
            conn = active.get(key)
            if self.select(vip, key, conn.key_hash if conn else None) != pinned_dip:
                unsafe.add(key)

    def _maybe_safe_return(self, vip: VirtualIP) -> None:
        if self.policy is not MigrationPolicy.PCC_SAFE:
            return
        if vip in self._at_slb and not self._unsafe[vip]:
            self._migrate_back(vip, self.queue.now)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def slb_intervals(self) -> Dict[VirtualIP, List[Tuple[float, float]]]:
        """Per-VIP windows during which traffic detoured through SLBs
        (feed to :func:`repro.netsim.simulator.traffic_fraction_at`)."""
        return {vip: list(ivs) for vip, ivs in self._slb_intervals.items()}
