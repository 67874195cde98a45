"""RMT/PISA-style match-action pipeline model.

A programmable switching ASIC (Tofino-class) exposes a pipeline of physical
stages; each stage owns fixed slices of the chip's resources (SRAM blocks,
match crossbar bits, hash bits, stateful ALUs, VLIW action slots).  The
compiler spreads each logical match-action table over one or more stages.

SilkRoad's feasibility claim — ten million connection entries fit on-chip —
is a placement question, so this module models placement: tables declare
per-stage resource demands and the pipeline first-fits them, raising
:class:`PlacementError` when a program does not fit.  Stage traversal also
yields the (nanosecond-scale) pipeline latency the paper contrasts against
the 50 µs - 1 ms of software load balancers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs.events import PLACEMENT_PLACE
from .sram import DEFAULT_BLOCK_WORDS, DEFAULT_WORD_BITS, words_for_entries


@dataclass
class StageResources:
    """Resource capacities (or demands) for one pipeline stage."""

    sram_blocks: int = 0
    tcam_blocks: int = 0
    crossbar_bits: int = 0
    hash_bits: int = 0
    stateful_alus: int = 0
    vliw_slots: int = 0

    def fits_within(self, capacity: "StageResources") -> bool:
        return (
            self.sram_blocks <= capacity.sram_blocks
            and self.tcam_blocks <= capacity.tcam_blocks
            and self.crossbar_bits <= capacity.crossbar_bits
            and self.hash_bits <= capacity.hash_bits
            and self.stateful_alus <= capacity.stateful_alus
            and self.vliw_slots <= capacity.vliw_slots
        )

    def subtract(self, demand: "StageResources") -> None:
        self.sram_blocks -= demand.sram_blocks
        self.tcam_blocks -= demand.tcam_blocks
        self.crossbar_bits -= demand.crossbar_bits
        self.hash_bits -= demand.hash_bits
        self.stateful_alus -= demand.stateful_alus
        self.vliw_slots -= demand.vliw_slots


#: Per-stage capacities of an RMT-style chip (Bosshart et al., SIGCOMM'13):
#: 106 SRAM blocks of 1K x 112b, 16 TCAM blocks, 640b match crossbar,
#: generous hash distribution, 4 stateful ALUs, ~224 VLIW action slots.
RMT_STAGE = StageResources(
    sram_blocks=106,
    tcam_blocks=16,
    crossbar_bits=640,
    hash_bits=832,
    stateful_alus=4,
    vliw_slots=224,
)

#: RMT reference chip: 32 match-action stages.
RMT_STAGES = 32

#: Per-stage traversal latency (ns); the paper quotes "sub-microsecond"
#: total pipeline latency and "tens of nanoseconds" added by new logic.
STAGE_LATENCY_NS = 18.0


class PlacementError(RuntimeError):
    """Raised when a table cannot be placed in the remaining pipeline."""


@dataclass
class TablePlacement:
    """Where a logical table landed."""

    name: str
    stages: List[int]
    per_stage_demand: StageResources


class Pipeline:
    """A pipeline of ``num_stages`` identical stages with first-fit placement."""

    def __init__(
        self,
        num_stages: int = RMT_STAGES,
        stage_template: StageResources = RMT_STAGE,
        word_bits: int = DEFAULT_WORD_BITS,
        block_words: int = DEFAULT_BLOCK_WORDS,
        recorder=None,
    ) -> None:
        if num_stages <= 0:
            raise ValueError("num_stages must be positive")
        self.num_stages = num_stages
        #: optional :class:`~repro.obs.recorder.FlightRecorder`; placement
        #: is compile-time work, so events carry t=0.0.
        self.recorder = recorder
        self.word_bits = word_bits
        self.block_words = block_words
        self._free: List[StageResources] = [
            StageResources(
                sram_blocks=stage_template.sram_blocks,
                tcam_blocks=stage_template.tcam_blocks,
                crossbar_bits=stage_template.crossbar_bits,
                hash_bits=stage_template.hash_bits,
                stateful_alus=stage_template.stateful_alus,
                vliw_slots=stage_template.vliw_slots,
            )
            for _ in range(num_stages)
        ]
        self._template = stage_template
        self.placements: Dict[str, TablePlacement] = {}

    # ------------------------------------------------------------------

    def sram_blocks_for_entries(self, num_entries: int, entry_bits: int) -> int:
        """SRAM blocks needed for a packed exact-match table: the words
        :func:`~repro.asicsim.sram.words_for_entries` packs the entries
        into, in whole blocks."""
        words = words_for_entries(num_entries, entry_bits, self.word_bits)
        return -(-words // self.block_words)

    def place_exact_match(
        self,
        name: str,
        num_entries: int,
        entry_bits: int,
        key_bits: int,
        stages_spanned: int = 1,
        stateful_alus: int = 0,
        vliw_slots: int = 1,
        hash_bits_per_stage: Optional[int] = None,
    ) -> TablePlacement:
        """Place an exact-match table spread over ``stages_spanned`` stages.

        Each spanned stage carries the full match key on its crossbar and its
        share of the SRAM blocks, mirroring how the compiler splits a large
        table like ConnTable.
        """
        if name in self.placements:
            raise ValueError(f"table already placed: {name}")
        if stages_spanned <= 0:
            raise ValueError("stages_spanned must be positive")
        total_blocks = self.sram_blocks_for_entries(num_entries, entry_bits)
        blocks_per_stage = -(-total_blocks // stages_spanned)
        if hash_bits_per_stage is None:
            # Index bits (log2 of words per stage) plus the stored digest.
            words_per_stage = blocks_per_stage * self.block_words
            index_bits = max(words_per_stage - 1, 1).bit_length()
            hash_bits_per_stage = index_bits + entry_bits
        demand = StageResources(
            sram_blocks=blocks_per_stage,
            crossbar_bits=key_bits,
            hash_bits=hash_bits_per_stage,
            stateful_alus=stateful_alus,
            vliw_slots=vliw_slots,
        )
        return self._first_fit(name, demand, stages_spanned)

    def place_register_array(
        self, name: str, size_bits: int, num_hash_ways: int
    ) -> TablePlacement:
        """Place a register-array structure (e.g. the TransitTable filter)."""
        blocks = max(-(-size_bits // (self.block_words * self.word_bits)), 1)
        demand = StageResources(
            sram_blocks=blocks,
            crossbar_bits=0,
            hash_bits=num_hash_ways * 16,
            stateful_alus=num_hash_ways,
            vliw_slots=1,
        )
        return self._first_fit(name, demand, stages_spanned=1)

    def _first_fit(
        self, name: str, demand: StageResources, stages_spanned: int
    ) -> TablePlacement:
        chosen: List[int] = []
        for stage_idx in range(self.num_stages):
            if demand.fits_within(self._free[stage_idx]):
                chosen.append(stage_idx)
                if len(chosen) == stages_spanned:
                    break
        if len(chosen) < stages_spanned:
            raise PlacementError(
                f"cannot place table {name!r}: needs {stages_spanned} stages "
                f"with {demand}, pipeline exhausted"
            )
        for stage_idx in chosen:
            self._free[stage_idx].subtract(demand)
        placement = TablePlacement(name=name, stages=chosen, per_stage_demand=demand)
        self.placements[name] = placement
        if self.recorder is not None:
            self.recorder.record(
                0.0, PLACEMENT_PLACE, None,
                name, tuple(chosen), demand.sram_blocks,
            )
        return placement

    # ------------------------------------------------------------------

    @property
    def latency_ns(self) -> float:
        """End-to-end pipeline traversal latency."""
        return self.num_stages * STAGE_LATENCY_NS

    def free_sram_blocks(self) -> int:
        return sum(stage.sram_blocks for stage in self._free)

    def used_sram_blocks(self) -> int:
        total = self._template.sram_blocks * self.num_stages
        return total - self.free_sram_blocks()

    def used_sram_bytes(self) -> int:
        return self.used_sram_blocks() * self.block_words * self.word_bits // 8

    def total_sram_bytes(self) -> int:
        return (
            self._template.sram_blocks
            * self.num_stages
            * self.block_words
            * self.word_bits
            // 8
        )
