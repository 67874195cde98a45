"""Transactional register arrays and the Bloom filter built on them.

Switching ASICs keep arrays of counters/meters with *packet transactional*
semantics: a read-check-modify-write completes in one clock cycle, so the
update made for one packet is visible to the very next packet.  P4 exposes
this as register arrays.  SilkRoad uses one small register array as a binary
Bloom filter (**TransitTable**) to remember the *pending connections* that
must keep using the old DIP-pool version during a 3-step PCC update.

The filter here is an exact model: ``k`` independent hash units address an
``m``-cell array, and a query ANDs the key's ``k`` cells read as bits
(``count > 0``).  Each cell counts the live marks on it, so taking back one
mark touches only that key's ``k`` cells: the TransitTable evicts a finished
update's marks this way while other updates keep theirs.  Ground-truth
membership is tracked alongside so experiments can count false positives
precisely (Figure 18 sweeps the filter size from 8 bytes to 1 KB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .hashing import _splitmix64, base_hash, hash_family, splitmix64_rows


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


#: The three possible answers: every query returns one of these.
_NEGATIVE = BloomQuery(positive=False, false_positive=False)
_TRUE_POSITIVE = BloomQuery(positive=True, false_positive=False)
_FALSE_POSITIVE = BloomQuery(positive=True, false_positive=True)


#: Base seed of a Bloom filter's hash ways.
BLOOM_SEED = 0xB100F


class BloomFilter:
    """A Bloom filter whose cells count the live marks on them.

    The data plane reads a cell as one bit, ``count > 0``; the counts are
    the control plane's record of which marks set it, so one mark can be
    taken back (:meth:`remove`) without touching any other key's bits.

    Parameters
    ----------
    size_bytes:
        Filter size; the paper shows 256 bytes suffices for the most frequent
        DIP-pool updates observed in production.
    num_hashes:
        Number of hash ways (``k``).
    """

    def __init__(self, size_bytes: int, num_hashes: int = 4) -> None:
        if size_bytes <= 0:
            raise ValueError("filter size must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.size_bytes = size_bytes
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        # Per-way pre-mixed seeds: every way index derives from the single
        # base hash of the key with one splitmix round (single-pass pipeline).
        self._way_mixes: List[int] = [
            unit.seed_mix for unit in hash_family(num_hashes, base_seed=BLOOM_SEED)
        ]
        #: live marks per cell; the data plane's bit is ``count > 0``.
        self._cells: List[int] = [0] * self.num_bits
        #: ground truth: key -> live marks on it.
        self._marks: Dict[bytes, int] = {}

    def _indices(self, key: bytes, key_hash: Optional[int] = None) -> List[int]:
        base = base_hash(key) if key_hash is None else key_hash
        bits = self.num_bits
        return [_splitmix64(base ^ mix) % bits for mix in self._way_mixes]

    def insert(self, key: bytes, key_hash: Optional[int] = None) -> None:
        """Add one mark of ``key`` (write-only phase of the 3-step update)."""
        cells = self._cells
        for index in self._indices(key, key_hash):
            cells[index] += 1
        marks = self._marks
        marks[key] = marks.get(key, 0) + 1

    def remove(self, marks: Iterable[Tuple[bytes, Optional[int]]]) -> int:
        """Take back one mark of each ``(key, key_hash)`` pair; returns how
        many of those keys have no live mark left.

        Every key must hold a live mark (``KeyError`` otherwise).  The
        pairs' cells are derived in one batched pass over all ``k`` ways.
        """
        live = self._marks
        bases = []
        gone = 0
        for key, key_hash in marks:
            left = live[key] - 1
            if left:
                live[key] = left
            else:
                del live[key]
                gone += 1
            bases.append(base_hash(key) if key_hash is None else key_hash)
        cells = self._cells
        rows = splitmix64_rows(bases, self._way_mixes) % np.uint64(self.num_bits)
        for index in rows.ravel().tolist():
            cells[index] -= 1
        return gone

    def query(self, key: bytes, key_hash: Optional[int] = None) -> BloomQuery:
        """Test membership (read-only phase); flags false positives."""
        base = base_hash(key) if key_hash is None else key_hash
        bits, cells = self.num_bits, self._cells
        for mix in self._way_mixes:
            if not cells[_splitmix64(base ^ mix) % bits]:
                return _NEGATIVE
        return _TRUE_POSITIVE if key in self._marks else _FALSE_POSITIVE

    def clear(self) -> None:
        """Reset the filter (step 3 of the PCC update)."""
        self._cells = [0] * self.num_bits
        self._marks.clear()

    def nonzero_cells(self) -> List[int]:
        """Indices of the cells the data plane reads as 1."""
        return [index for index, count in enumerate(self._cells) if count]

    @property
    def population(self) -> int:
        """Ground-truth number of distinct keys with a live mark."""
        return len(self._marks)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return (self.num_bits - self._cells.count(0)) / self.num_bits

    def expected_false_positive_rate(self, population: Optional[int] = None) -> float:
        """Analytic FP rate ``(1 - e^{-kn/m})^k`` for the current population."""
        n = self.population if population is None else population
        if n == 0:
            return 0.0
        k, m = self.num_hashes, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k
