"""Tests for mergeable registries (the sharded-replay merge machinery)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.obs.metrics import Gauge, Histogram, MetricRegistry, P2Quantile


class TestInstrumentMerge:
    def test_counters_add(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.counter("x").inc(3)
        b.counter("x").inc(4)
        a.merge(b)
        assert a.get("x").value == 7.0

    def test_gauges_add_and_detach_callbacks(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.gauge("occupancy").set_function(lambda: 10.0)
        b.gauge("occupancy").set(5.0)
        a.merge(b)
        merged = a.get("occupancy")
        assert merged.value == 15.0
        merged.set(1.0)  # now a plain stored gauge
        assert merged.value == 1.0

    def test_missing_instruments_copied_as_snapshots(self):
        a = MetricRegistry()
        b = MetricRegistry()
        b.counter("only_b").inc(2)
        b.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.get("only_b").value == 2.0
        assert a.get("h").count == 1
        # The copy is detached: mutating it must not touch b's instrument.
        a.get("only_b").inc()
        assert b.get("only_b").value == 2.0

    def test_prefix_folds_under_a_namespace(self):
        """``merge(prefix=)`` is the fold the sharded replay and the fleet
        use to keep several switches apart in one registry: every name
        gains ``<prefix>.``, callback gauges detach, P² state clones."""
        rng = random.Random(11)
        source = MetricRegistry()
        source.counter("hits_total", help="hits").inc(3)
        source.gauge("depth").set_function(lambda: 4.0)
        hist = source.histogram(
            "lat", buckets=(1.0, 2.0, 4.0), help="latency", quantiles=(0.5, 0.99)
        )
        for _ in range(500):
            hist.observe(rng.uniform(0.0, 5.0))

        target = MetricRegistry()
        target.counter("sw.hits_total").inc(1)
        assert target.merge(source, prefix="sw") is target

        # Reference: the hand-rolled clone-then-fold this parameter replaced.
        expected = MetricRegistry()
        expected.counter("sw.hits_total").inc(1)
        for name, theirs in source.instruments():
            if isinstance(theirs, Histogram):
                ours = expected.histogram(
                    f"sw.{name}", buckets=theirs.bounds, help=theirs.help
                )
            elif isinstance(theirs, Gauge):
                ours = expected.gauge(f"sw.{name}", help=theirs.help)
            else:
                ours = expected.counter(f"sw.{name}", help=theirs.help)
            ours.merge_from(theirs)

        assert target.names() == ["sw.depth", "sw.hits_total", "sw.lat"]
        assert target.fingerprint() == expected.fingerprint()
        assert target.get("sw.hits_total").value == 4.0
        assert target.get("sw.lat").help == "latency"
        for q in (0.5, 0.99):
            assert target.get("sw.lat").percentile(q) == pytest.approx(
                expected.get("sw.lat").percentile(q)
            )
            assert target.get("sw.lat").percentile(q) == pytest.approx(
                hist.percentile(q), rel=0.05
            )
        # Detached: the folded gauge is a stored value, the source untouched.
        target.get("sw.depth").set(1.0)
        assert source.get("depth").value == 4.0
        assert "hits_total" not in target

    def test_type_conflict_rejected(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_histogram_buckets_must_match(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_histogram_merge_equals_single_stream(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 10) for _ in range(500)]
        whole = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        left = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        right = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for i, v in enumerate(values):
            whole.observe(v)
            (left if i % 2 == 0 else right).observe(v)
        left.merge_from(right)
        assert left.bucket_counts == whole.bucket_counts
        assert left.count == whole.count
        assert left.sum == pytest.approx(whole.sum)
        assert left.min == whole.min and left.max == whole.max

    def test_p2_mismatched_quantile_rejected(self):
        a = P2Quantile(0.5)
        b = P2Quantile(0.99)
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_p2_exact_phase_merge_is_lossless(self):
        # Both sides under five observations: the merge replays raw values,
        # so the result is exactly a single-stream estimator.
        a = P2Quantile(0.5)
        b = P2Quantile(0.5)
        whole = P2Quantile(0.5)
        for v in (1.0, 5.0):
            a.observe(v)
            whole.observe(v)
        for v in (2.0, 9.0):
            b.observe(v)
            whole.observe(v)
        a.merge_from(b)
        assert a.count == whole.count
        assert a.value() == whole.value()

    def test_p2_converged_merge_is_reasonable(self):
        rng = random.Random(9)
        a = P2Quantile(0.9)
        b = P2Quantile(0.9)
        for _ in range(2000):
            a.observe(rng.uniform(0, 1))
            b.observe(rng.uniform(0, 1))
        a.merge_from(b)
        assert a.count == 4000
        assert a.value() == pytest.approx(0.9, abs=0.05)


class TestRegistryMerge:
    def _sharded_and_whole(self):
        # Integer-valued observations: their float sums are exact, so the
        # sharded fold and the single stream accumulate to the same bits.
        # (With arbitrary floats only counts and buckets — not ``sum`` —
        # are order-independent; the engine's guarantee is a *fixed* merge
        # order, which the parallel-engine tests pin.)
        whole = MetricRegistry()
        shards = [MetricRegistry() for _ in range(4)]
        rng = random.Random(3)
        for i in range(400):
            shard = shards[i % 4]
            value = float(rng.randrange(0, 200))
            for reg in (whole, shard):
                reg.counter("events_total").inc()
                reg.histogram("size", buckets=(10.0, 100.0)).observe(value)
        return shards, whole

    def test_merged_fingerprint_equals_single_registry(self):
        shards, whole = self._sharded_and_whole()
        merged = MetricRegistry.merged(shards)
        assert merged.fingerprint() == whole.fingerprint()

    def test_merge_is_order_insensitive_for_integer_states(self):
        shards, _ = self._sharded_and_whole()
        forward = MetricRegistry.merged(shards).fingerprint()
        backward = MetricRegistry.merged(list(reversed(shards))).fingerprint()
        assert forward == backward

    def test_merge_returns_self_for_chaining(self):
        a, b = MetricRegistry(), MetricRegistry()
        b.counter("x").inc()
        assert a.merge(b) is a


class TestGaugePickling:
    def test_callback_gauge_pickles_as_sampled_value(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 42.0)  # lambdas cannot be pickled
        clone = pickle.loads(pickle.dumps(gauge))
        assert clone.value == 42.0
        clone.set(1.0)
        assert clone.value == 1.0

    def test_registry_with_callback_gauges_round_trips(self):
        registry = MetricRegistry()
        registry.gauge("live").set_function(lambda: 7.0)
        registry.counter("c").inc(2)
        registry.histogram("h", buckets=(1.0,), quantiles=(0.5,)).observe(0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.get("live").value == 7.0
        assert clone.fingerprint() == registry.fingerprint()
