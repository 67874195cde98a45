"""Stateless ECMP load balancing, plain and resilient (§2.1, §7).

Two switch-only baselines that keep **no per-connection state**:

* :class:`EcmpLoadBalancer` — hash the 5-tuple over the *current* DIP pool
  (``pool[h(key) % len(pool)]``).  Any pool change re-shuffles the modulus,
  so most ongoing connections re-hash — the PCC failure mode that motivates
  ConnTable.
* :class:`ResilientEcmpLoadBalancer` — resilient hashing (Broadcom
  Smart-Hash-style): a fixed-size slot table per VIP; removing a member only
  reassigns the slots that pointed at it, adding a member steals a
  proportional share of slots.  Far fewer spurious remaps than plain ECMP,
  but additions still break the stolen slots' connections; the paper
  mentions it (§7) as an alternative version-reuse fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..asicsim.hashing import HashUnit, base_hash, splitmix64_rows
from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer
from ..netsim.updates import UpdateEvent, UpdateKind


class EcmpLoadBalancer(LoadBalancer):
    """Plain modulo-ECMP over the live DIP pool. Stateless, PCC-oblivious."""

    def __init__(self, name: str = "ecmp", seed: int = 0xEC3F) -> None:
        self.name = name
        self._unit = HashUnit(seed=seed)
        self._pools: Dict[VirtualIP, List[DirectIP]] = {}
        # Keyed by connection key, not a Set[Connection]: sets iterate in
        # id()-dependent order, which varies across processes and would make
        # re-hash decision timestamps nondeterministic under sharded replay.
        self._active: Dict[VirtualIP, Dict[bytes, Connection]] = {}

    def announce_vip(self, vip: VirtualIP, dips) -> None:
        if vip in self._pools:
            raise ValueError(f"VIP already announced: {vip}")
        self._pools[vip] = list(dips)

    def select(
        self, vip: VirtualIP, key: bytes, key_hash: Optional[int] = None
    ) -> DirectIP:
        pool = self._pools[vip]
        return pool[self._unit.index(key, len(pool), key_hash)]

    # -- LoadBalancer interface -------------------------------------------

    def on_connection_arrival(self, conn: Connection) -> None:
        dip = self.select(conn.vip, conn.key, conn.key_hash)
        conn.record_decision(self.queue.now, dip)
        self._active.setdefault(conn.vip, {})[conn.key] = conn

    def on_connection_end(self, conn: Connection) -> None:
        self._active.get(conn.vip, {}).pop(conn.key, None)

    def apply_update(self, event: UpdateEvent) -> None:
        now = self.queue.now
        pool = self._pools[event.vip]
        if event.kind is UpdateKind.REMOVE:
            if event.dip not in pool:
                return
            pool.remove(event.dip)
        else:
            if event.dip in pool:
                return
            pool.append(event.dip)
        if not pool:
            raise RuntimeError(f"pool of {event.vip} drained empty")
        # Insertion order: every flow re-hashes, deterministically.
        for conn in self._active.get(event.vip, {}).values():
            new_dip = self.select(event.vip, conn.key, conn.key_hash)
            if event.kind is UpdateKind.REMOVE and conn.current_dip == event.dip:
                conn.broken_by_removal = True
            conn.record_decision(now, new_dip)


class ResilientHashTable:
    """Fixed-slot resilient hashing for one VIP.

    ``num_slots`` buckets each hold one member; flows hash to a slot, and
    membership changes rewrite as few slots as possible.
    """

    def __init__(
        self, members: List[DirectIP], num_slots: int = 256, seed: int = 0x5107
    ) -> None:
        if not members:
            raise ValueError("need at least one member")
        if num_slots < len(members):
            raise ValueError("need at least one slot per member")
        self.num_slots = num_slots
        self._unit = HashUnit(seed=seed)
        self._members: List[DirectIP] = []
        self.slots: List[DirectIP] = [None] * num_slots  # type: ignore[list-item]
        for i in range(num_slots):
            self.slots[i] = members[i % len(members)]
        self._members = list(members)

    @property
    def members(self) -> List[DirectIP]:
        return list(self._members)

    def slot_of(self, key_hash: int) -> int:
        """The slot a flow with base hash ``key_hash`` hashes to.

        It depends on the table's seed and ``num_slots`` only, never on
        membership: tables built with the same two map every flow to the
        same slot.
        """
        return self._unit.derive(key_hash) % self.num_slots

    def slots_of(self, key_hashes: List[int]) -> List[int]:
        """:meth:`slot_of` for a column of base hashes, in one pass."""
        rows = splitmix64_rows(key_hashes, (self._unit.seed_mix,))
        return (rows[0] % np.uint64(self.num_slots)).tolist()

    def member_at(self, slot: int) -> DirectIP:
        """The member currently holding ``slot``."""
        return self.slots[slot]

    def lookup(self, key: bytes, key_hash: Optional[int] = None) -> DirectIP:
        return self.member_at(
            self.slot_of(base_hash(key) if key_hash is None else key_hash)
        )

    def _share(self) -> int:
        return self.num_slots // max(len(self._members), 1)

    def remove(self, member: DirectIP) -> List[int]:
        """Remove a member; only its slots are rewritten.

        Returns the indices of rewritten slots.
        """
        if member not in self._members:
            raise KeyError(f"{member} is not a member")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last member")
        self._members.remove(member)
        rewritten = []
        for i, owner in enumerate(self.slots):
            if owner == member:
                self.slots[i] = self._members[i % len(self._members)]
                rewritten.append(i)
        return rewritten

    def add(self, member: DirectIP) -> List[int]:
        """Add a member by stealing an even share of slots.

        Returns the indices of stolen (rewritten) slots.
        """
        if member in self._members:
            raise ValueError(f"{member} already a member")
        self._members.append(member)
        target = self.num_slots // len(self._members)
        # Steal a deterministic but member-dependent spread of slots (a
        # fixed stride starting at a hashed offset), approximating the
        # pseudorandom slot selection of hardware resilient hashing.
        stolen = []
        stride = max(self.num_slots // max(target, 1), 1)
        offset = self._unit.hash_bytes(str(member).encode()) % stride
        i = offset
        while len(stolen) < target and i < self.num_slots:
            if self.slots[i] != member:
                self.slots[i] = member
                stolen.append(i)
            i += stride
        return stolen


class ResilientEcmpLoadBalancer(LoadBalancer):
    """ECMP with resilient hashing: membership changes disturb few flows."""

    def __init__(
        self, name: str = "resilient-ecmp", num_slots: int = 256, seed: int = 0x5107
    ) -> None:
        self.name = name
        self.num_slots = num_slots
        self._seed = seed
        self._tables: Dict[VirtualIP, ResilientHashTable] = {}
        # Insertion-ordered, like EcmpLoadBalancer (see comment there).
        self._active: Dict[VirtualIP, Dict[bytes, Connection]] = {}

    def announce_vip(self, vip: VirtualIP, dips) -> None:
        if vip in self._tables:
            raise ValueError(f"VIP already announced: {vip}")
        self._tables[vip] = ResilientHashTable(
            list(dips), num_slots=self.num_slots, seed=self._seed
        )

    def select(
        self, vip: VirtualIP, key: bytes, key_hash: Optional[int] = None
    ) -> DirectIP:
        return self._tables[vip].lookup(key, key_hash)

    def on_connection_arrival(self, conn: Connection) -> None:
        dip = self.select(conn.vip, conn.key, conn.key_hash)
        conn.record_decision(self.queue.now, dip)
        self._active.setdefault(conn.vip, {})[conn.key] = conn

    def on_connection_end(self, conn: Connection) -> None:
        self._active.get(conn.vip, {}).pop(conn.key, None)

    def apply_update(self, event: UpdateEvent) -> None:
        now = self.queue.now
        table = self._tables[event.vip]
        if event.kind is UpdateKind.REMOVE:
            if event.dip not in table.members:
                return
            table.remove(event.dip)
        else:
            if event.dip in table.members:
                return
            table.add(event.dip)
        # Only moved slots change; iterate in insertion order.
        for conn in self._active.get(event.vip, {}).values():
            new_dip = table.lookup(conn.key, conn.key_hash)
            if event.kind is UpdateKind.REMOVE and conn.current_dip == event.dip:
                conn.broken_by_removal = True
            conn.record_decision(now, new_dip)
