"""Benchmarks for the extension experiments (§7 hybrid, switch failure,
latency)."""

from __future__ import annotations

import pytest

from repro.experiments import hybrid, latency, switch_failure


def test_bench_latency(benchmark):
    comparison = benchmark(latency.run)
    assert comparison.silkroad_pipeline_s < 1e-6  # sub-microsecond pipeline
    assert comparison.speedup_vs_slb > 100


def test_bench_hybrid(once):
    points = once(
        lambda: hybrid.run(
            capacities=(800, 20_000), scale=0.2, horizon_s=60.0, updates_per_min=20.0
        )
    )
    small_hybrid = next(p for p in points if p.conn_table_capacity == 800 and p.hybrid)
    big = next(p for p in points if p.conn_table_capacity == 20_000 and p.hybrid)
    # §7: the hybrid pins overflow in software and keeps PCC at zero.
    assert small_hybrid.table_full_events > 0
    assert small_hybrid.overflow_pinned == small_hybrid.table_full_events
    assert small_hybrid.violations == 0
    assert big.table_full_events == 0


def test_bench_switch_failure(once):
    points = once(
        lambda: switch_failure.run(scale=0.15, horizon_s=90.0, failure_at=60.0)
    )
    quiet = next(p for p in points if not p.update_before_failure)
    churned = next(p for p in points if p.update_before_failure)
    # §7: failover alone breaks nothing (same VIPTable everywhere);
    # old-version connections are the only exposure.  ``failed_over`` is
    # the fleet's hand-off count; its audit pins every break on the re-hash.
    assert quiet.failed_over > 0
    assert quiet.violations == 0
    assert churned.violations > 0
    assert churned.violations <= churned.failed_over
    for point in (quiet, churned):
        assert point.audit.ok, str(point.audit)
        assert (
            point.audit.violation_causes["version_pinned_rehash"]
            == point.audit.violations
        )
