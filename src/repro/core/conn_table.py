"""ConnTable: per-connection state in ASIC SRAM (§4.2).

The generic multi-stage cuckoo table of :mod:`repro.asicsim.cuckoo` at the
paper's geometry: keys are connection 5-tuples (as canonical bytes), values
are DIP-pool version numbers, and the entry layout is the paper's 28-bit
packed record (16-bit digest + 6-bit version + 6-bit overhead; four entries
per 112-bit SRAM word).  The layout and the Figure 14 design points it is
compared with live in :mod:`.sram_cost`.
"""

from __future__ import annotations

from typing import Optional

from ..asicsim.cuckoo import CuckooTable, buckets_for_capacity
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


class ConnTable(CuckooTable):
    """The connection table of one SilkRoad switch: a
    :class:`~repro.asicsim.cuckoo.CuckooTable` sized by ``config`` and
    counting into ``metrics``, so a lookup, insert or delete is one call
    into the cuckoo table with no forwarding frame in between.  It adds
    the paper's SRAM layout and the redirected-SYN collision fix."""

    def __init__(self, config: SilkRoadConfig, metrics: Scope = None) -> None:
        super().__init__(
            conn_table_buckets(config),
            ways=CONN_TABLE_WAYS,
            stages=CONN_TABLE_STAGES,
            digest_bits=config.digest_bits,
            value_bits=config.version_bits,
            metrics=metrics,
        )
        self.config = config

    # The per-layer tracer wraps these by class (``ConnTable.lookup`` is
    # one span): naming the inherited functions here gives this class its
    # own attributes without adding a call.
    lookup = CuckooTable.lookup
    prime_profiles = CuckooTable.prime_profiles
    insert = CuckooTable.insert
    delete = CuckooTable.delete

    def relocate_colliding_entry(
        self, new_key: bytes, key_hash: Optional[int] = None
    ) -> bool:
        """Resolve a digest collision for ``new_key``: find the resident
        entry its SYN falsely hit and move it to a different stage."""
        result = self.lookup(new_key, key_hash)
        if not result.hit or not result.false_positive:
            return True  # nothing to resolve
        key = self.key_at(result.location)
        if key is None:
            raise AssertionError(f"lookup hit an empty slot: {result.location}")
        return self.relocate(key)

    @property
    def sram_bytes(self) -> int:
        """SRAM of every slot, each stage's buckets packed into words."""
        slots_per_stage = self.buckets_per_stage * CONN_TABLE_WAYS
        return CONN_TABLE_STAGES * conn_entry(self.config).bytes_for(slots_per_stage)
