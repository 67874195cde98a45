"""Transactional register arrays and the Bloom filter built on them.

Switching ASICs keep arrays of counters/meters with *packet transactional*
semantics: a read-check-modify-write completes in one clock cycle, so the
update made for one packet is visible to the very next packet.  P4 exposes
this as register arrays.  SilkRoad uses one small register array as a binary
Bloom filter (**TransitTable**) to remember the *pending connections* that
must keep using the old DIP-pool version during a 3-step PCC update.

The filter here is an exact model: ``k`` independent hash units address a
``m``-bit array; inserts set bits, queries AND them.  Ground-truth membership
is tracked alongside so experiments can count false positives precisely
(Figure 18 sweeps the filter size from 8 bytes to 1 KB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set

from .hashing import HashUnit, _splitmix64, base_hash, hash_family


class RegisterArray:
    """An array of ``width``-bit registers with transactional update."""

    def __init__(self, size: int, width: int = 1) -> None:
        if size <= 0:
            raise ValueError("register array size must be positive")
        if width <= 0:
            raise ValueError("register width must be positive")
        self.size = size
        self.width = width
        self._max = (1 << width) - 1
        self._cells = [0] * size
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        self.reads += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= value <= self._max:
            raise ValueError(f"value {value} out of range for {self.width}-bit register")
        self.writes += 1
        self._cells[index] = value

    def read_modify_write(self, index: int, delta: int) -> int:
        """Atomic saturating add; returns the post-update value."""
        self.reads += 1
        self.writes += 1
        value = self._cells[index] + delta
        value = min(max(value, 0), self._max)
        self._cells[index] = value
        return value

    def clear(self) -> None:
        self._cells = [0] * self.size

    @property
    def bits(self) -> int:
        return self.size * self.width

    @property
    def bytes(self) -> int:
        return -(-self.bits // 8)


@dataclass(frozen=True)
class BloomQuery:
    """Result of a Bloom-filter query with ground truth attached."""

    positive: bool
    false_positive: bool


class BloomFilter:
    """A binary Bloom filter on a transactional register array.

    Parameters
    ----------
    size_bytes:
        Filter size; the paper shows 256 bytes suffices for the most frequent
        DIP-pool updates observed in production.
    num_hashes:
        Number of hash ways (``k``).
    """

    def __init__(self, size_bytes: int, num_hashes: int = 4, seed: int = 0xB100F) -> None:
        if size_bytes <= 0:
            raise ValueError("filter size must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.size_bytes = size_bytes
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        self._units: List[HashUnit] = hash_family(num_hashes, base_seed=seed)
        # Per-way pre-mixed seeds: every way index derives from the single
        # base hash of the key with one splitmix round (single-pass pipeline).
        self._way_mixes: List[int] = [unit.seed_mix for unit in self._units]
        self._array = RegisterArray(self.num_bits, width=1)
        self._members: Set[bytes] = set()
        self.inserts = 0
        self.queries = 0
        self.false_positives = 0

    def _indices(self, key: bytes, key_hash: Optional[int] = None) -> List[int]:
        base = base_hash(key) if key_hash is None else key_hash
        bits = self.num_bits
        return [_splitmix64(base ^ mix) % bits for mix in self._way_mixes]

    def insert(self, key: bytes, key_hash: Optional[int] = None) -> None:
        """Set the key's bits (write-only phase of the 3-step update)."""
        self.inserts += 1
        for index in self._indices(key, key_hash):
            self._array.write(index, 1)
        self._members.add(key)

    def query(self, key: bytes, key_hash: Optional[int] = None) -> BloomQuery:
        """Test membership (read-only phase); flags false positives."""
        self.queries += 1
        positive = all(
            self._array.read(index) for index in self._indices(key, key_hash)
        )
        false_positive = positive and key not in self._members
        if false_positive:
            self.false_positives += 1
        return BloomQuery(positive=positive, false_positive=false_positive)

    def __contains__(self, key: bytes) -> bool:
        return self.query(key).positive

    def clear(self) -> None:
        """Reset the filter (step 3 of the PCC update)."""
        self._array.clear()
        self._members.clear()

    @property
    def population(self) -> int:
        """Ground-truth number of distinct inserted keys."""
        return len(self._members)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return sum(self._array._cells) / self.num_bits

    def expected_false_positive_rate(self, population: Optional[int] = None) -> float:
        """Analytic FP rate ``(1 - e^{-kn/m})^k`` for the current population."""
        n = self.population if population is None else population
        if n == 0:
            return 0.0
        k, m = self.num_hashes, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k


class CountingBloomFilter(BloomFilter):
    """Counting variant (supports deletion); used in ablations.

    The paper's TransitTable is binary because it is cleared wholesale at the
    end of every update; the counting variant quantifies what supporting
    incremental deletion would cost (4 bits/cell is the classic choice).
    """

    def __init__(
        self,
        size_bytes: int,
        num_hashes: int = 4,
        counter_bits: int = 4,
        seed: int = 0xB100F,
    ) -> None:
        super().__init__(size_bytes, num_hashes, seed)
        if counter_bits <= 1:
            raise ValueError("counting filter needs counter_bits > 1")
        self.counter_bits = counter_bits
        self.num_bits = (size_bytes * 8) // counter_bits
        if self.num_bits == 0:
            raise ValueError("filter too small for the requested counter width")
        self._array = RegisterArray(self.num_bits, width=counter_bits)

    def insert(self, key: bytes, key_hash: Optional[int] = None) -> None:
        self.inserts += 1
        for index in self._indices(key, key_hash):
            self._array.read_modify_write(index, +1)
        self._members.add(key)

    def remove(self, key: bytes, key_hash: Optional[int] = None) -> None:
        """Decrement the key's counters; key must have been inserted."""
        if key not in self._members:
            raise KeyError("key was never inserted")
        for index in self._indices(key, key_hash):
            self._array.read_modify_write(index, -1)
        self._members.discard(key)
