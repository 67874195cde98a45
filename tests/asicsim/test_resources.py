"""Tests for the Table 2 resource-accounting model (`experiments.table2`)
and the header widths it costs."""

from __future__ import annotations

import pytest

from repro.core.config import SilkRoadConfig
from repro.core.sram_cost import IPV4, IPV6, conn_entry
from repro.experiments.table2 import (
    BASELINE_SWITCH_P4,
    PAPER_TABLE2,
    ResourceVector,
    run,
    silkroad_demand,
)


class TestKeyWidths:
    def test_five_tuple_bits(self):
        assert IPV4.five_tuple_bits == 104  # 13 bytes
        assert IPV6.five_tuple_bits == 296  # 37 bytes


class TestResourceVector:
    def test_relative_to_zero_baseline(self):
        zero = ResourceVector()
        extra = ResourceVector(tcam_bytes=0)
        rel = extra.relative_to(zero)
        assert rel["tcam"] == 0.0  # 0/0 -> 0 %


class TestTable2Reproduction:
    def test_default_config_matches_paper_exactly(self):
        measured = run()
        for metric, expected in PAPER_TABLE2.items():
            assert measured[metric] == pytest.approx(expected, abs=0.01), metric

    def test_no_tcam_used(self):
        assert silkroad_demand(SilkRoadConfig()).tcam_bytes == 0

    def test_sram_scales_with_connections(self):
        small = run(SilkRoadConfig(conn_table_capacity=100_000))
        large = run(SilkRoadConfig(conn_table_capacity=10_000_000))
        assert small["sram"] < PAPER_TABLE2["sram"] < large["sram"]

    def test_wider_digest_costs_more_sram_and_hash_bits(self):
        narrow = silkroad_demand(SilkRoadConfig(digest_bits=16))
        wide = silkroad_demand(SilkRoadConfig(digest_bits=24))
        assert wide.sram_bytes > narrow.sram_bytes
        assert wide.hash_bits > narrow.hash_bits

    def test_baseline_positive(self):
        assert BASELINE_SWITCH_P4.sram_bytes > 0
        assert BASELINE_SWITCH_P4.crossbar_bits > 0
        assert BASELINE_SWITCH_P4.stateful_alus > 0

    def test_conn_entry_bits_paper_default(self):
        assert conn_entry(SilkRoadConfig()).entry_bits == 28
