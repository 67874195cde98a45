"""Switching-ASIC substrate: the hardware primitives SilkRoad builds on.

This package models the features of modern merchant switching ASICs that §4.1
of the paper identifies as SilkRoad's enablers:

* :mod:`~repro.asicsim.hashing` — generic hash units (ECMP/LAG-style),
* :mod:`~repro.asicsim.sram` — 112-bit SRAM words, blocks, and budgets,
* :mod:`~repro.asicsim.cuckoo` — multi-stage cuckoo exact-match tables with
  digest false positives and software BFS insertion,
* :mod:`~repro.asicsim.registers` — transactional register arrays and the
  Bloom filter built on them,
* :mod:`~repro.asicsim.meters` — RFC 4115 two-rate three-color meters,
* :mod:`~repro.asicsim.learning_filter` — the L2-learning filter reused for
  connection learning,
* :mod:`~repro.asicsim.pipeline` — RMT-style stage/placement model,
* :mod:`~repro.asicsim.resources` — Table 2 resource accounting.
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
from .pipeline import (
    Pipeline,
    PlacementError,
    RMT_STAGE,
    RMT_STAGES,
    StageResources,
    TablePlacement,
)
from .registers import BloomFilter, BloomQuery, RegisterArray
from .resources import (
    BASELINE_SWITCH_P4,
    PAPER_TABLE2,
    ResourceVector,
    SilkRoadResourceConfig,
    silkroad_demand,
    table2,
)
from .sram import (
    DEFAULT_BLOCK_WORDS,
    DEFAULT_WORD_BITS,
    SramBlock,
    SramBudget,
    SramExhausted,
    bytes_for_entries,
    entries_per_word,
    megabytes,
    words_for_entries,
)

__all__ = [
    "BASELINE_SWITCH_P4",
    "BloomFilter",
    "BloomQuery",
    "Color",
    "CuckooTable",
    "DEFAULT_BLOCK_WORDS",
    "DEFAULT_WORD_BITS",
    "DuplicateKey",
    "HashUnit",
    "InsertResult",
    "LearnBatch",
    "LearnEvent",
    "LearningFilter",
    "Location",
    "LookupResult",
    "MeterBank",
    "MeterConfig",
    "PAPER_TABLE2",
    "Pipeline",
    "PlacementError",
    "RMT_STAGE",
    "RMT_STAGES",
    "RegisterArray",
    "ResourceVector",
    "SilkRoadResourceConfig",
    "SramBlock",
    "SramBudget",
    "SramExhausted",
    "StageResources",
    "TableFull",
    "TablePlacement",
    "TrTcmMeter",
    "bytes_for_entries",
    "entries_per_word",
    "hash_family",
    "megabytes",
    "mix64",
    "silkroad_demand",
    "table2",
    "words_for_entries",
]
