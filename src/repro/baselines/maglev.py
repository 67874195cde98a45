"""Maglev consistent hashing (Eisenbud et al., NSDI 2016).

The software-load-balancer baseline the paper cites ([20]) selects DIPs
with Maglev hashing: each backend fills a prime-sized lookup table through
its own permutation, giving (a) near-perfectly even load and (b) *minimal
disruption* — a membership change remaps only ~1/N of the keyspace.

This is a faithful implementation of the population algorithm from §3.4 of
the Maglev paper, used by :mod:`repro.baselines.slb` and available for
ablations against SilkRoad's versioned-pool approach.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..asicsim.hashing import HashUnit
from ..netsim.packet import DirectIP

#: Default lookup-table size: a prime well above typical pool sizes.  The
#: Maglev paper uses 65537 in production; 251 keeps unit tests fast while
#: preserving the algorithm's properties.
DEFAULT_TABLE_SIZE = 251


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class MaglevTable:
    """A Maglev lookup table over a set of backends."""

    def __init__(
        self,
        backends: Sequence[DirectIP],
        table_size: int = DEFAULT_TABLE_SIZE,
        seed: int = 0x3A61EF,
    ) -> None:
        if not backends:
            raise ValueError("need at least one backend")
        if not _is_prime(table_size):
            raise ValueError("table_size must be prime")
        if len(backends) > table_size:
            raise ValueError("more backends than table entries")
        self.table_size = table_size
        self._seed = seed
        self._offset_unit = HashUnit(seed=seed)
        self._skip_unit = HashUnit(seed=seed ^ 0x5EED)
        self._key_unit = HashUnit(seed=seed ^ 0xF00D)
        self.backends: List[DirectIP] = list(backends)
        self.entries: List[DirectIP] = []
        self._populate()

    def _permutation_params(self, backend: DirectIP) -> tuple:
        name = str(backend).encode()
        offset = self._offset_unit.hash_bytes(name) % self.table_size
        skip = self._skip_unit.hash_bytes(name) % (self.table_size - 1) + 1
        return offset, skip

    def _populate(self) -> None:
        """The population loop from §3.4 of the Maglev paper."""
        m = self.table_size
        n = len(self.backends)
        offsets = []
        skips = []
        for backend in self.backends:
            offset, skip = self._permutation_params(backend)
            offsets.append(offset)
            skips.append(skip)
        next_idx = [0] * n
        entry: List[Optional[int]] = [None] * m
        filled = 0
        while filled < m:
            for i in range(n):
                # Walk backend i's permutation to its next free slot.
                while True:
                    c = (offsets[i] + next_idx[i] * skips[i]) % m
                    next_idx[i] += 1
                    if entry[c] is None:
                        entry[c] = i
                        filled += 1
                        break
                if filled == m:
                    break
        self.entries = [self.backends[i] for i in entry]  # type: ignore[index]

    def lookup(self, key: bytes, key_hash: Optional[int] = None) -> DirectIP:
        return self.entries[self._key_unit.index(key, self.table_size, key_hash)]

    def rebuild(self, backends: Sequence[DirectIP]) -> int:
        """Replace the backend set; returns the number of changed entries
        (the disruption the change caused)."""
        old = list(self.entries)
        self.backends = list(backends)
        self._populate()
        return sum(1 for a, b in zip(old, self.entries) if a != b)
