"""Tests for the metrics registry primitives."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5


class TestGauge:
    def test_set(self):
        g = Gauge("x")
        g.set(4.0)
        assert g.value == 4.0

    def test_callback(self):
        state = {"v": 1.0}
        g = Gauge("x")
        g.set_function(lambda: state["v"])
        assert g.value == 1.0
        state["v"] = 9.0
        assert g.value == 9.0


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        h = Histogram("x", buckets=(1.0, 2.0))
        h.observe(1.0)  # lands in le=1
        h.observe(1.5)  # lands in le=2
        h.observe(2.0)  # lands in le=2
        h.observe(3.0)  # lands in +Inf
        cumulative = dict(h.cumulative_buckets())
        assert cumulative[1.0] == 1
        assert cumulative[2.0] == 3
        assert cumulative[float("inf")] == 4

    def test_summary_statistics(self):
        h = Histogram("x", buckets=(10.0,))
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.mean() == pytest.approx(2.0)
        assert h.min == 1.0
        assert h.max == 3.0

    def test_percentile_bucket_interpolation(self):
        h = Histogram("x", buckets=tuple(float(b) for b in range(0, 101, 10)))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0.5) == pytest.approx(50.0, abs=10.0)
        assert h.percentile(1.0) == 100.0

    def test_percentile_streaming_quantile(self):
        h = Histogram("x", buckets=DEFAULT_BUCKETS)
        rng = random.Random(3)
        values = [rng.uniform(0.0, 1000.0) for _ in range(2000)]
        for v in values:
            h.observe(v)
        exact = sorted(values)[1000]
        assert h.percentile(0.5) == pytest.approx(exact, rel=0.05)

    def test_percentile_interpolates_from_the_answering_buckets_own_edge(self):
        # Buckets (1, 2] and (2, 4] are empty: the 51st observation sits in
        # (4, 8] and must be read from there, not from le=1's upper bound.
        h = Histogram("x", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(50):
            h.observe(0.5)
        for _ in range(50):
            h.observe(7.0)
        assert 4.0 <= h.percentile(0.51) <= 7.0
        assert h.percentile(1.0) == 7.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(0.5)

    def test_percentile_validates_p(self):
        h = Histogram("x")
        h.observe(1.0)
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError):
                h.percentile(p)

    def test_rejects_duplicate_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0))


class TestLatencyGrid:
    """``LATENCY_BUCKETS_S`` is fine enough to carry p50 / p99 by itself."""

    #: Widest step between two positive bounds (10^0.1, rounded).
    RATIO = max(
        hi / lo for lo, hi in zip(LATENCY_BUCKETS_S[1:], LATENCY_BUCKETS_S[2:])
    )
    #: Seven medians from 100 µs to 10 s, landing all over their buckets.
    MEDIANS = [10 ** (k * 5 / 6 - 4) for k in range(7)]

    def test_shape(self):
        assert LATENCY_BUCKETS_S[0] == 0.0
        assert LATENCY_BUCKETS_S[1] == 1e-5 and LATENCY_BUCKETS_S[-1] == 100.0
        assert list(LATENCY_BUCKETS_S) == sorted(set(LATENCY_BUCKETS_S))
        assert self.RATIO < 1.27
        assert {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0} < set(LATENCY_BUCKETS_S)

    @pytest.mark.parametrize("seed", [3, 11, 2026])
    @pytest.mark.parametrize("shape", ["exponential", "lognormal"])
    def test_p50_and_p99_within_five_percent(self, seed, shape):
        rng = random.Random(seed)
        for median in self.MEDIANS:
            if shape == "exponential":
                rate = math.log(2.0) / median
                values = [rng.expovariate(rate) for _ in range(50_000)]
            else:
                mu = math.log(median)
                values = [rng.lognormvariate(mu, 0.5) for _ in range(50_000)]
            h = Histogram("x", buckets=LATENCY_BUCKETS_S)
            for v in values:
                h.observe(v)
            for q in (0.5, 0.99):
                exact = float(np.quantile(values, q))  # sorted-sample value
                read = h.percentile(q)
                assert exact / self.RATIO <= read <= exact * self.RATIO
                assert read == pytest.approx(exact, rel=0.05), (median, q)

    def test_all_zero_stream_reads_zero(self):
        h = Histogram("x", buckets=LATENCY_BUCKETS_S)
        for _ in range(1000):
            h.observe(0.0)
        assert [h.percentile(q) for q in (0.0, 0.5, 0.99, 1.0)] == [0.0] * 4

    def test_zeros_do_not_smear_into_the_first_positive_bucket(self):
        h = Histogram("x", buckets=LATENCY_BUCKETS_S)
        for _ in range(90):
            h.observe(0.0)
        for _ in range(10):
            h.observe(2e-3)
        assert h.percentile(0.5) == 0.0
        assert h.percentile(0.9) == 0.0
        assert 1e-3 < h.percentile(0.99) <= 2e-3

    def test_above_the_top_bound_reads_at_most_max(self):
        h = Histogram("x", buckets=LATENCY_BUCKETS_S)
        for v in (50.0, 250.0, 400.0):
            h.observe(v)
        for q in (0.5, 0.99, 1.0):
            assert 50.0 <= h.percentile(q) <= 400.0
        assert h.percentile(1.0) == 400.0


class TestMetricRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricRegistry()
        a = registry.counter("hits")
        b = registry.counter("hits")
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_scope_prefixes_names(self):
        registry = MetricRegistry()
        scope = registry.scope("conn_table")
        scope.counter("inserts_total").inc()
        assert "conn_table.inserts_total" in registry
        nested = scope.scope("stage0")
        nested.gauge("occupancy").set(3.0)
        assert registry.get("conn_table.stage0.occupancy").value == 3.0

    def test_snapshot_flattens_histograms(self):
        registry = MetricRegistry()
        registry.histogram("lat").observe(2.0)
        snap = registry.snapshot()
        assert snap["lat.count"] == 1.0
        assert snap["lat.sum"] == 2.0
        assert snap["lat.mean"] == 2.0
