"""DIPPoolTable: versioned, immutable DIP pools with version reuse (§4.2).

Compacting ConnTable's action data from an 18-byte DIP to a 6-bit *version*
introduces one level of indirection: DIPPoolTable maps ``(VIP, version)`` to
a DIP pool (like an ECMP group maps a group id to its members).  The rules:

* A pool, once created and referenced by live connections, **never changes**
  — that is what makes the per-version hash consistent.
* Versions come from a per-VIP **ring buffer**; a version is returned when
  the last connection using it expires.
* **Version reuse**: when an added DIP substitutes a previously removed one
  (the rolling-reboot pattern), the old version's pool is patched in place
  — the vacated slot gets the new DIP — and that version becomes current
  again, instead of burning a fresh version.  Connections pinned to the
  version that hashed to other slots are unaffected (slot positions are
  stable), which is why this is safe.  Figure 15 quantifies the benefit:
  6 version bits suffice where 9 would otherwise be needed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asicsim.hashing import _MASK64, _splitmix64, HashUnit, base_hash
from ..asicsim.sram import bytes_for_entries
from ..netsim.packet import DirectIP, VirtualIP


class VersionsExhausted(RuntimeError):
    """All 2^version_bits versions of a VIP are live; see §4.2 footnote 4."""


@dataclass(frozen=True)
class DipPool:
    """An immutable, ordered DIP pool.

    ``select`` hashes a connection key over the pool slots; because a pool
    never mutates (except slot *substitution*, which preserves positions of
    all other slots), every packet of a connection selects the same slot.
    """

    slots: Tuple[DirectIP, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("a DIP pool cannot be empty")

    def select(
        self, key: bytes, unit: HashUnit, key_hash: Optional[int] = None
    ) -> DirectIP:
        return self.slots[unit.index(key, len(self.slots), key_hash)]

    def without(self, dip: DirectIP) -> "DipPool":
        """A new pool with one DIP removed."""
        remaining = tuple(d for d in self.slots if d != dip)
        if len(remaining) == len(self.slots):
            raise KeyError(f"{dip} not in pool")
        return DipPool(remaining)

    def with_added(self, dip: DirectIP) -> "DipPool":
        """A new pool with one DIP appended."""
        if dip in self.slots:
            raise ValueError(f"{dip} already in pool")
        return DipPool(self.slots + (dip,))

    def substituted(self, slot_index: int, dip: DirectIP) -> "DipPool":
        """A pool with ``slots[slot_index]`` replaced by ``dip``."""
        if not 0 <= slot_index < len(self.slots):
            raise IndexError("slot index out of range")
        slots = list(self.slots)
        slots[slot_index] = dip
        return DipPool(tuple(slots))

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, dip: DirectIP) -> bool:
        return dip in self.slots


@dataclass
class _VipVersions:
    """Per-VIP version state."""

    free: deque  # ring buffer of available version numbers
    pools: Dict[int, DipPool] = field(default_factory=dict)
    refcounts: Dict[int, int] = field(default_factory=dict)
    current: Optional[int] = None
    #: (version, slot_index, removed_dip) records awaiting substitution.
    vacancies: List[Tuple[int, int, DirectIP]] = field(default_factory=list)
    versions_created: int = 0  # counts fresh allocations (reuse not counted)


class DipPoolTable:
    """The (VIP, version) -> DIP pool table plus the version allocator."""

    def __init__(
        self,
        version_bits: int = 6,
        version_reuse: bool = True,
        select_seed: int = 0xD1B0,
    ) -> None:
        if not 1 <= version_bits <= 16:
            raise ValueError("version_bits must be in [1, 16]")
        self.version_bits = version_bits
        self.num_versions = 1 << version_bits
        self.version_reuse = version_reuse
        self._select_unit = HashUnit(seed=select_seed)
        self._vips: Dict[VirtualIP, _VipVersions] = {}

    # ------------------------------------------------------------------
    # VIP lifecycle
    # ------------------------------------------------------------------

    def add_vip(self, vip: VirtualIP, dips: Sequence[DirectIP]) -> int:
        """Register a VIP with its initial pool; returns the first version."""
        if vip in self._vips:
            raise ValueError(f"VIP already registered: {vip}")
        state = _VipVersions(free=deque(range(self.num_versions)))
        self._vips[vip] = state
        return self._create_version(state, DipPool(tuple(dips)))

    def remove_vip(self, vip: VirtualIP) -> None:
        del self._vips[vip]

    def __contains__(self, vip: VirtualIP) -> bool:
        return vip in self._vips

    def vips(self) -> List[VirtualIP]:
        return list(self._vips)

    # ------------------------------------------------------------------
    # Version allocation
    # ------------------------------------------------------------------

    def _state(self, vip: VirtualIP) -> _VipVersions:
        state = self._vips.get(vip)
        if state is None:
            raise KeyError(f"unknown VIP: {vip}")
        return state

    def _create_version(self, state: _VipVersions, pool: DipPool) -> int:
        if not state.free:
            self._reclaim(state)
        if not state.free:
            raise VersionsExhausted(
                "no free version numbers; long-lived connections hold all "
                f"{self.num_versions} versions"
            )
        version = state.free.popleft()
        state.pools[version] = pool
        state.refcounts[version] = 0
        state.current = version
        state.versions_created += 1
        return version

    def _reclaim(self, state: _VipVersions) -> None:
        """Return versions with zero live connections to the ring buffer."""
        for version in list(state.pools):
            if version == state.current:
                continue
            if state.refcounts.get(version, 0) == 0:
                del state.pools[version]
                del state.refcounts[version]
                state.vacancies = [v for v in state.vacancies if v[0] != version]
                state.free.append(version)

    # ------------------------------------------------------------------
    # Pool updates (driven by the PCC update coordinator)
    # ------------------------------------------------------------------

    def remove_dip(self, vip: VirtualIP, dip: DirectIP) -> int:
        """Remove a DIP: creates (and returns) a new current version.

        The vacated slot of the *old* version is remembered so a future
        addition can substitute into it (version reuse).
        """
        state = self._state(vip)
        old_version = state.current
        assert old_version is not None
        old_pool = state.pools[old_version]
        slot_index = old_pool.slots.index(dip)
        new_pool = old_pool.without(dip)
        new_version = self._create_version(state, new_pool)
        if self.version_reuse:
            state.vacancies.append((old_version, slot_index, dip))
        return new_version

    def add_dip(self, vip: VirtualIP, dip: DirectIP) -> int:
        """Add a DIP: reuses an old version when substitution is possible,
        otherwise creates a fresh version.  Returns the new current version.
        """
        state = self._state(vip)
        current_pool = state.pools[state.current]
        if self.version_reuse:
            # Substitute into the most recent vacancy whose version is still
            # live *and* whose patched membership equals what the pool
            # should now contain (current members plus the new DIP) —
            # intervening updates can make older vacancies stale.
            target = set(current_pool.slots) | {dip}
            while state.vacancies:
                version, slot_index, _removed = state.vacancies.pop()
                pool = state.pools.get(version)
                if pool is None or version == state.current:
                    continue
                patched = pool.substituted(slot_index, dip)
                if set(patched.slots) != target:
                    continue
                state.pools[version] = patched
                state.current = version
                return version
        return self._create_version(state, current_pool.with_added(dip))

    def set_weight(self, vip: VirtualIP, dip: DirectIP, weight: int) -> int:
        """Give ``dip`` ``weight`` slot copies in a *new* current version.

        Weighted selection is plain slot replication: a DIP holding
        ``weight`` of the pool's slots receives that share of new
        connections.  The change always lands in a fresh version (never a
        patched one) because it alters the slot layout, not just one
        vacated position — connections pinned to older versions keep
        their mapping.  A no-op (the DIP already holds ``weight`` slots)
        returns the current version without allocating.
        """
        if weight < 1:
            raise ValueError("weight must be >= 1")
        state = self._state(vip)
        assert state.current is not None
        current_pool = state.pools[state.current]
        have = sum(1 for d in current_pool.slots if d == dip)
        if have == 0:
            raise KeyError(f"{dip} not in current pool of {vip}")
        if have == weight:
            return state.current
        slots = tuple(d for d in current_pool.slots if d != dip) + (dip,) * weight
        return self._create_version(state, DipPool(slots))

    # ------------------------------------------------------------------
    # Data-plane reads
    # ------------------------------------------------------------------

    def current_version(self, vip: VirtualIP) -> int:
        version = self._state(vip).current
        assert version is not None
        return version

    def pool(self, vip: VirtualIP, version: int) -> DipPool:
        pool = self._state(vip).pools.get(version)
        if pool is None:
            raise KeyError(f"no version {version} for {vip}")
        return pool

    def select(
        self,
        vip: VirtualIP,
        version: int,
        key: bytes,
        key_hash: Optional[int] = None,
    ) -> DirectIP:
        """Pick the DIP for a connection pinned to a pool version.

        ``key_hash`` is the connection's cached base hash; supplying it
        makes selection pure integer mixing.  The unit derivation and slot
        modulo are inlined (same arithmetic as
        ``pool.select(key, self._select_unit, key_hash)``): selection runs
        once per connection on the hot path, at admission (an install
        re-selects only a connection a remap path moved), and the
        flattened form drops four delegation calls each time.
        """
        state = self._vips.get(vip)
        if state is None:
            raise KeyError(f"unknown VIP: {vip}")
        pool = state.pools.get(version)
        if pool is None:
            raise KeyError(f"no version {version} for {vip}")
        if key_hash is None:
            key_hash = base_hash(key)
        slots = pool.slots
        return slots[
            _splitmix64((key_hash ^ self._select_unit.seed_mix) & _MASK64)
            % len(slots)
        ]

    # ------------------------------------------------------------------
    # Reference counting (connection lifecycle)
    # ------------------------------------------------------------------

    def acquire(self, vip: VirtualIP, version: int) -> None:
        """A connection started using this version."""
        state = self._state(vip)
        if version not in state.refcounts:
            raise KeyError(f"no version {version} for {vip}")
        state.refcounts[version] += 1

    def release(self, vip: VirtualIP, version: int) -> None:
        """A connection using this version expired."""
        state = self._state(vip)
        count = state.refcounts.get(version)
        if count is None or count <= 0:
            raise ValueError(f"refcount underflow for {vip} v{version}")
        state.refcounts[version] = count - 1
        if count - 1 == 0 and version != state.current:
            self._reclaim(state)

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------

    def live_versions(self, vip: VirtualIP) -> List[int]:
        return sorted(self._state(vip).pools)

    def versions_created(self, vip: VirtualIP) -> int:
        """Fresh version allocations for this VIP (reuse does not count)."""
        return self._state(vip).versions_created

    def refcount(self, vip: VirtualIP, version: int) -> int:
        return self._state(vip).refcounts.get(version, 0)

    def sram_bytes(self, dip_bytes: int = 18, overhead_bits: int = 6) -> int:
        """SRAM the table consumes: one member entry per (version, slot).

        ``dip_bytes`` is 18 for IPv6 (16 B address + 2 B port), 6 for IPv4.
        """
        member_entries = sum(
            len(pool)
            for state in self._vips.values()
            for pool in state.pools.values()
        )
        return bytes_for_entries(member_entries, dip_bytes * 8 + overhead_bits)
