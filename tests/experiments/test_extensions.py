"""Tests for the extension experiments (§7 hybrid, latency comparison)."""

from __future__ import annotations

import pytest

from repro.experiments import hybrid, latency


class TestLatency:
    def test_pipeline_is_sub_microsecond(self):
        comparison = latency.run()
        assert comparison.silkroad_pipeline_s < 1e-6

    def test_slb_is_orders_slower(self):
        comparison = latency.run()
        assert comparison.speedup_vs_slb > 100

    def test_chained_amplification(self):
        comparison = latency.run()
        chained = comparison.chained(hops=3)
        assert chained["slb"] > 3 * chained["silkroad"] / 3  # sanity
        assert chained["slb"] - chained["silkroad"] > 500e-6

    def test_chained_validation(self):
        with pytest.raises(ValueError):
            latency.run().chained(hops=0)

    def test_main_renders(self):
        out = latency.main()
        assert "pipeline" in out and "us" in out


class TestHybrid:
    @pytest.fixture(scope="class")
    def points(self):
        return hybrid.run(
            capacities=(500, 20_000), scale=0.2, horizon_s=60.0, updates_per_min=20.0
        )

    def test_small_table_overflows(self, points):
        small = [p for p in points if p.conn_table_capacity == 500]
        assert all(p.table_full_events > 0 for p in small)

    def test_hybrid_pins_overflow(self, points):
        small_hybrid = next(
            p for p in points if p.conn_table_capacity == 500 and p.hybrid
        )
        assert small_hybrid.overflow_pinned > 0
        assert small_hybrid.overflow_pinned == small_hybrid.table_full_events
        assert small_hybrid.violations == 0  # PCC preserved by pinning

    def test_slow_path_pins_nothing(self, points):
        small_pure = next(
            p for p in points if p.conn_table_capacity == 500 and not p.hybrid
        )
        assert small_pure.overflow_pinned == 0

    def test_slow_path_overflow_breaks_connections(self, points):
        """Without the §7 fallback, overflow connections re-hash at every
        pool flip — the hybrid's whole point."""
        small_pure = next(
            p for p in points if p.conn_table_capacity == 500 and not p.hybrid
        )
        small_hybrid = next(
            p for p in points if p.conn_table_capacity == 500 and p.hybrid
        )
        assert small_pure.violations > 0
        assert small_hybrid.violations == 0

    def test_big_table_never_overflows(self, points):
        big = [p for p in points if p.conn_table_capacity == 20_000]
        assert all(p.table_full_events == 0 for p in big)
        assert all(p.violations == 0 for p in big)

    def test_main_renders(self):
        out = hybrid.main()
        assert "hybrid" in out
