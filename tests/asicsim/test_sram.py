"""Tests for SRAM word-packing arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asicsim.sram import (
    bytes_for_entries,
    entries_per_word,
    megabytes,
    words_for_entries,
)


class TestEntryPacking:
    def test_paper_packing_four_per_word(self):
        # 28-bit entries, 112-bit words: exactly four per word (§6).
        assert entries_per_word(28, 112) == 4

    def test_wide_entry_spans_words(self):
        # 296-bit IPv6 5-tuple key alone is wider than one word.
        assert entries_per_word(300, 112) == 0
        assert words_for_entries(10, 300, 112) == 30  # 3 words per entry

    def test_words_round_up(self):
        assert words_for_entries(5, 28, 112) == 2
        assert words_for_entries(4, 28, 112) == 1
        assert words_for_entries(0, 28, 112) == 0

    def test_bytes_for_entries_paper_scale(self):
        # 10M connections at 28 bits -> 2.5M words -> 35 MB.
        b = bytes_for_entries(10_000_000, 28, 112)
        assert b == 2_500_000 * 112 // 8
        assert 34 < megabytes(b) < 36

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            entries_per_word(0)
        with pytest.raises(ValueError):
            entries_per_word(28, 0)
        with pytest.raises(ValueError):
            words_for_entries(-1, 28)

    @given(
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=1, max_value=512),
    )
    def test_capacity_always_sufficient(self, entries, entry_bits):
        words = words_for_entries(entries, entry_bits)
        per_word = entries_per_word(entry_bits)
        if per_word > 0:
            assert words * per_word >= entries
            # Never over-allocate by more than one word.
            assert (words - 1) * per_word < entries or entries == 0
        else:
            words_per_entry = -(-entry_bits // 112)
            assert words == entries * words_per_entry

