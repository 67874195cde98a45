"""SRAM word packing of a match-action switching ASIC.

RMT-style ASICs organise on-chip SRAM into fixed-width words (112 bits in
Bosshart et al., which SilkRoad's evaluation also assumes).  An exact-match
entry occupies a fixed number of bits (match key + action data + packing
overhead); *word packing* places as many whole entries as fit into a word,
and an entry wider than a word spans whole words.

This is the generic arithmetic only.  What each SilkRoad table stores per
entry is declared once, in :mod:`repro.core.sram_cost`.
"""

from __future__ import annotations

#: SRAM word width used throughout the paper's evaluation (bits).
DEFAULT_WORD_BITS = 112

#: Packing overhead per entry (instruction + next-table address), §6.
ENTRY_OVERHEAD_BITS = 6


def entries_per_word(entry_bits: int) -> int:
    """Number of whole entries that pack into one SRAM word."""
    if entry_bits <= 0:
        raise ValueError("entry width must be positive")
    return DEFAULT_WORD_BITS // entry_bits


def words_for_entries(num_entries: int, entry_bits: int) -> int:
    """SRAM words needed to store ``num_entries`` packed entries."""
    if num_entries < 0:
        raise ValueError("entry count must be non-negative")
    per_word = entries_per_word(entry_bits)
    if per_word == 0:
        # Entry wider than a word: it spans multiple words.
        words_per_entry = -(-entry_bits // DEFAULT_WORD_BITS)
        return num_entries * words_per_entry
    return -(-num_entries // per_word)


def bytes_for_entries(num_entries: int, entry_bits: int) -> int:
    """SRAM bytes needed to store ``num_entries`` packed entries."""
    return words_for_entries(num_entries, entry_bits) * DEFAULT_WORD_BITS // 8


def megabytes(num_bytes: int) -> float:
    """Convert bytes to MB (10^6, as switch datasheets count)."""
    return num_bytes / 1e6

