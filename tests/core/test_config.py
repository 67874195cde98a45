"""Tests for SilkRoadConfig."""

from __future__ import annotations

import pytest

from repro.core.config import SilkRoadConfig
from repro.core.silkroad import LEARNING_FILTER_CAPACITY
from repro.core.sram_cost import conn_entry


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SilkRoadConfig()
        assert cfg.digest_bits == 16
        assert cfg.version_bits == 6
        assert conn_entry(cfg).entry_bits == 28  # packs 4-per-112-bit-word
        assert cfg.num_versions == 64
        assert cfg.transit_table_bytes == 256
        assert LEARNING_FILTER_CAPACITY == 2048
        assert cfg.learning_filter_timeout_s == pytest.approx(1e-3)
        assert cfg.insertion_rate_per_s == 200_000.0
        assert cfg.use_transit_table
        assert cfg.version_reuse

    def test_frozen(self):
        cfg = SilkRoadConfig()
        with pytest.raises(Exception):
            cfg.digest_bits = 24  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"conn_table_capacity": 0},
            {"digest_bits": 0},
            {"digest_bits": 65},
            {"version_bits": 0},
            {"version_bits": 17},
            {"transit_table_bytes": 0},
            {"insertion_rate_per_s": 0.0},
            {"learning_filter_timeout_s": 0.0},
            {"cpu_max_backlog": 0},
            {"update_step_deadline_s": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SilkRoadConfig(**kwargs)

    def test_custom_widths_change_entry_bits(self):
        cfg = SilkRoadConfig(digest_bits=24, version_bits=8)
        assert conn_entry(cfg).entry_bits == 24 + 8 + 6
        assert cfg.num_versions == 256
