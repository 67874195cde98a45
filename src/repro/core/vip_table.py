"""VIPTable: VIP -> current DIP-pool version (§4.2, Figure 7).

In SilkRoad the VIPTable no longer stores the DIP pool itself; it stores the
*version* new connections should use.  During step 2 of a 3-step PCC update
the table temporarily exposes **both** the old and new versions — packets
that miss ConnTable retrieve the pair and the TransitTable decides which one
applies (Figure 9c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netsim.packet import VirtualIP


@dataclass
class VipEntry:
    """One VIPTable entry."""

    current_version: int
    #: Set only during step 2 of an update: the pre-update version that
    #: pending connections (marked in the TransitTable) must keep using.
    old_version: Optional[int] = None

    @property
    def in_transition(self) -> bool:
        return self.old_version is not None


class VipTable:
    """The VIP -> version match-action table."""

    def __init__(self) -> None:
        self._entries: Dict[VirtualIP, VipEntry] = {}

    def install(self, vip: VirtualIP, version: int) -> None:
        """Announce a VIP at this switch with its initial pool version."""
        if vip in self._entries:
            raise ValueError(f"VIP already installed: {vip}")
        self._entries[vip] = VipEntry(current_version=version)

    def __contains__(self, vip: VirtualIP) -> bool:
        return vip in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def vips(self) -> List[VirtualIP]:
        return list(self._entries)

    def lookup(self, vip: VirtualIP) -> VipEntry:
        entry = self._entries.get(vip)
        if entry is None:
            raise KeyError(f"VIP not announced: {vip}")
        return entry

    # ------------------------------------------------------------------
    # Update transitions (called by the PCC update coordinator)
    # ------------------------------------------------------------------

    def begin_transition(self, vip: VirtualIP, new_version: int) -> None:
        """Step 2 entry: expose (old, new); new connections use ``new``."""
        entry = self.lookup(vip)
        if entry.in_transition:
            raise RuntimeError(f"{vip} already in transition")
        entry.old_version = entry.current_version
        entry.current_version = new_version

    def end_transition(self, vip: VirtualIP) -> None:
        """Step 3: drop the old version; the update is finished."""
        entry = self.lookup(vip)
        if not entry.in_transition:
            raise RuntimeError(f"{vip} not in transition")
        entry.old_version = None

    def set_version(self, vip: VirtualIP, version: int) -> None:
        """Atomic version switch (used when no transition is needed, and by
        the no-TransitTable ablation which switches immediately)."""
        entry = self.lookup(vip)
        entry.current_version = version
