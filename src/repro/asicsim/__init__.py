"""Switching-ASIC substrate: the hardware primitives SilkRoad builds on.

This package models the features of modern merchant switching ASICs that §4.1
of the paper identifies as SilkRoad's enablers:

* :mod:`~repro.asicsim.hashing` — generic hash units (ECMP/LAG-style),
* :mod:`~repro.asicsim.sram` — packing entries into 112-bit SRAM words,
* :mod:`~repro.asicsim.cuckoo` — multi-stage cuckoo exact-match tables with
  digest false positives and software BFS insertion,
* :mod:`~repro.asicsim.registers` — transactional register arrays and the
  Bloom filter built on them,
* :mod:`~repro.asicsim.meters` — RFC 4115 two-rate three-color meters,
* :mod:`~repro.asicsim.learning_filter` — the L2-learning filter reused for
  connection learning.

What each SilkRoad table stores per entry, and so what it costs in SRAM, is
declared in :mod:`repro.core.sram_cost`; Table 2's other resource axes are
costed in :mod:`repro.experiments.table2`.
"""

from .cuckoo import (
    CuckooTable,
    DuplicateKey,
    InsertResult,
    Location,
    LookupResult,
    TableFull,
)
from .hashing import HashUnit, hash_family, mix64
from .learning_filter import LearnBatch, LearnEvent, LearningFilter
from .meters import Color, MeterBank, MeterConfig, TrTcmMeter
from .registers import BloomFilter, BloomQuery, RegisterArray
from .sram import (
    DEFAULT_WORD_BITS,
    ENTRY_OVERHEAD_BITS,
    bytes_for_entries,
    entries_per_word,
    megabytes,
    words_for_entries,
)

__all__ = [
    "BloomFilter",
    "BloomQuery",
    "Color",
    "CuckooTable",
    "DEFAULT_WORD_BITS",
    "DuplicateKey",
    "ENTRY_OVERHEAD_BITS",
    "HashUnit",
    "InsertResult",
    "LearnBatch",
    "LearnEvent",
    "LearningFilter",
    "Location",
    "LookupResult",
    "MeterBank",
    "MeterConfig",
    "RegisterArray",
    "TableFull",
    "TrTcmMeter",
    "bytes_for_entries",
    "entries_per_word",
    "hash_family",
    "megabytes",
    "mix64",
    "words_for_entries",
]
