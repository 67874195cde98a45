"""ConnTable: per-connection state in ASIC SRAM (§4.2).

A thin, load-balancer-flavoured wrapper around the generic multi-stage
cuckoo table of :mod:`repro.asicsim.cuckoo`: keys are connection 5-tuples
(as canonical bytes), values are DIP-pool version numbers, and the entry
layout is the paper's 28-bit packed record (16-bit digest + 6-bit version +
6-bit overhead; four entries per 112-bit SRAM word).

The module also provides the memory arithmetic for the three design points
Figure 14 compares:

* ``naive`` — full 5-tuple key, full DIP action (what a match-action table
  would store without SilkRoad's compaction; 55 bytes per IPv6 entry),
* ``digest_only`` — hash-digest key, full DIP action,
* ``digest_version`` — hash-digest key, version action (SilkRoad).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..asicsim.cuckoo import (
    CuckooTable,
    InsertResult,
    LookupResult,
    buckets_for_capacity,
)
from ..asicsim.sram import DEFAULT_WORD_BITS, bytes_for_entries
from ..obs.metrics import Scope
from .config import SilkRoadConfig

#: ConnTable geometry (§4.2): the table spans four pipeline stages, each a
#: four-way bucket array — four 28-bit entries fill one 112-bit SRAM word.
CONN_TABLE_STAGES = 4
CONN_TABLE_WAYS = 4


def conn_table_buckets(config: SilkRoadConfig) -> int:
    """Buckets per ConnTable stage that ``config`` sizes; the P4 twin
    reads its table geometry from here too."""
    return buckets_for_capacity(
        config.conn_table_capacity,
        config.conn_table_target_load,
        ways=CONN_TABLE_WAYS,
        stages=CONN_TABLE_STAGES,
    )


class ConnTable:
    """The connection table of one SilkRoad switch; ``metrics`` is the
    scope its :class:`~repro.asicsim.cuckoo.CuckooTable` counts into."""

    def __init__(
        self,
        config: SilkRoadConfig,
        metrics: Scope = None,
    ) -> None:
        self.config = config
        self._table = CuckooTable(
            conn_table_buckets(config),
            ways=CONN_TABLE_WAYS,
            stages=CONN_TABLE_STAGES,
            digest_bits=config.digest_bits,
            value_bits=config.version_bits,
            metrics=metrics,
        )

    # -- data plane ----------------------------------------------------

    def lookup(self, key: bytes, key_hash: Optional[int] = None) -> LookupResult:
        """Digest lookup, exactly as the ASIC performs it.

        ``key_hash`` is the connection's cached base hash; with it the
        lookup performs no byte hashing at all.
        """
        return self._table.lookup(key, key_hash)

    def prime_profiles(self, keys, key_hashes) -> None:
        """Vectorized warm-up of the per-key profile caches (batch mode)."""
        self._table.prime_profiles(keys, key_hashes)

    # -- software (switch CPU) -----------------------------------------

    def insert(
        self, key: bytes, version: int, key_hash: Optional[int] = None
    ) -> InsertResult:
        return self._table.insert(key, version, key_hash)

    def delete(self, key: bytes) -> None:
        self._table.delete(key)

    def get_exact(self, key: bytes) -> Optional[int]:
        return self._table.get_exact(key)

    def relocate_colliding_entry(
        self, new_key: bytes, key_hash: Optional[int] = None
    ) -> bool:
        """Resolve a digest collision for ``new_key``: find the resident
        entry its SYN falsely hit and move it to a different stage."""
        result = self._table.lookup(new_key, key_hash)
        if not result.hit or not result.false_positive:
            return True  # nothing to resolve
        key = self._table.key_at(result.location)
        if key is None:
            raise AssertionError(f"lookup hit an empty slot: {result.location}")
        return self._table.relocate(key)

    # -- introspection ---------------------------------------------------

    def entries(self):
        """Resident entries as ``(stage, bucket, way, key, digest, version)``
        in physical order (see :meth:`CuckooTable.entries`)."""
        return self._table.entries()

    def __contains__(self, key: bytes) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    @property
    def capacity(self) -> int:
        return self._table.capacity

    @property
    def load_factor(self) -> float:
        return self._table.load_factor

    @property
    def false_positive_lookups(self) -> int:
        return self._table.false_positive_lookups

    @property
    def sram_bytes(self) -> int:
        return self._table.sram_bytes

    def check_invariants(self) -> None:
        self._table.check_invariants()


# ----------------------------------------------------------------------
# Figure 14 memory arithmetic
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EntryLayout:
    """Bit layout of one ConnTable entry under a design variant."""

    key_bits: int
    action_bits: int
    overhead_bits: int = 6

    @property
    def entry_bits(self) -> int:
        return self.key_bits + self.action_bits + self.overhead_bits


def naive_layout(ipv6: bool) -> EntryLayout:
    """Full 5-tuple -> full DIP (the paper's 55-byte IPv6 strawman)."""
    if ipv6:
        return EntryLayout(key_bits=37 * 8, action_bits=18 * 8)
    return EntryLayout(key_bits=13 * 8, action_bits=6 * 8)


def digest_only_layout(ipv6: bool, digest_bits: int = 16) -> EntryLayout:
    """Hash-digest key, full DIP action."""
    dip_bits = 18 * 8 if ipv6 else 6 * 8
    return EntryLayout(key_bits=digest_bits, action_bits=dip_bits)


def digest_version_layout(digest_bits: int = 16, version_bits: int = 6) -> EntryLayout:
    """SilkRoad: hash-digest key, pool-version action (28 bits default)."""
    return EntryLayout(key_bits=digest_bits, action_bits=version_bits)


def conn_table_bytes(
    num_connections: int,
    layout: EntryLayout,
    word_bits: int = DEFAULT_WORD_BITS,
) -> int:
    """SRAM bytes for a ConnTable under a given layout (word-packed)."""
    return bytes_for_entries(num_connections, layout.entry_bits, word_bits)


def memory_saving(
    num_connections: int,
    ipv6: bool,
    use_digest: bool = True,
    use_version: bool = True,
    digest_bits: int = 16,
    version_bits: int = 6,
    dip_pool_bytes: int = 0,
) -> float:
    """Fractional SRAM saving versus the naive layout (Figure 14).

    ``dip_pool_bytes`` adds the DIPPoolTable overhead that versioning
    requires (the extra indirection is charged against the saving).
    """
    base = conn_table_bytes(num_connections, naive_layout(ipv6))
    if base == 0:
        return 0.0
    if use_digest and use_version:
        layout = digest_version_layout(digest_bits, version_bits)
        cost = conn_table_bytes(num_connections, layout) + dip_pool_bytes
    elif use_digest:
        layout = digest_only_layout(ipv6, digest_bits)
        cost = conn_table_bytes(num_connections, layout)
    elif use_version:
        dip_bits = (37 * 8) if ipv6 else (13 * 8)
        layout = EntryLayout(key_bits=dip_bits, action_bits=version_bits)
        cost = conn_table_bytes(num_connections, layout) + dip_pool_bytes
    else:
        cost = base
    return max(0.0, 1.0 - cost / base)
