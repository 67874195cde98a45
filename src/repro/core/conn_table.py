"""ConnTable: per-connection state in ASIC SRAM (§4.2).

A thin, load-balancer-flavoured wrapper around the generic multi-stage
cuckoo table of :mod:`repro.asicsim.cuckoo`: keys are connection 5-tuples
(as canonical bytes), values are DIP-pool version numbers, and the entry
layout is the paper's 28-bit packed record (16-bit digest + 6-bit version +
6-bit overhead; four entries per 112-bit SRAM word).  The layout and the
Figure 14 design points it is compared with live in :mod:`.sram_cost`.
"""

from __future__ import annotations

from typing import Optional

from ..asicsim.cuckoo import (
    CuckooTable,
    InsertResult,
    LookupResult,
    buckets_for_capacity,
)
from ..obs.metrics import Scope
from .config import SilkRoadConfig
from .sram_cost import conn_entry

#: ConnTable geometry (§4.2): the table spans four pipeline stages, each a
#: four-way bucket array — four 28-bit entries fill one 112-bit SRAM word.
CONN_TABLE_STAGES = 4
CONN_TABLE_WAYS = 4
#: Load the table is sized for: 15/16, because the cuckoo BFS packs tightly.
CONN_TABLE_TARGET_LOAD = 0.9375


def conn_table_buckets(config: SilkRoadConfig) -> int:
    """Buckets per ConnTable stage that ``config`` sizes; the P4 twin
    reads its table geometry from here too."""
    return buckets_for_capacity(
        config.conn_table_capacity,
        CONN_TABLE_TARGET_LOAD,
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
        """SRAM of every slot, each stage's buckets packed into words."""
        slots_per_stage = self._table.buckets_per_stage * CONN_TABLE_WAYS
        return CONN_TABLE_STAGES * conn_entry(self.config).bytes_for(slots_per_stage)

    def check_invariants(self) -> None:
        self._table.check_invariants()

