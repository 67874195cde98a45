"""Tests for mergeable registries (the sharded-replay merge machinery)."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SilkRoadConfig
from repro.faults.fleet import run_fleet
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_S,
    Gauge,
    Histogram,
    MetricRegistry,
)


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
        gains ``<prefix>.``, callback gauges detach, histograms clone."""
        rng = random.Random(11)
        source = MetricRegistry()
        source.counter("hits_total", help="hits").inc(3)
        source.gauge("depth").set_function(lambda: 4.0)
        hist = source.histogram("lat", buckets=(1.0, 2.0, 4.0), help="latency")
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
            assert target.get("sw.lat").percentile(q) == hist.percentile(q)
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

    @given(
        observations=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e3), st.integers(0, 7)),
            min_size=1,
            max_size=200,
        ),
        buckets=st.sampled_from([LATENCY_BUCKETS_S, DEFAULT_BUCKETS, (1.0, 2.0)]),
        quantiles=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    def test_sharded_histogram_equals_the_whole(self, observations, buckets, quantiles):
        """Any split of any stream into 1-8 shards (empty ones included)
        merges back to the single-stream histogram: every slot, and so
        every percentile, bit for bit — only ``sum`` sees addition order."""
        whole = Histogram("h", buckets=buckets)
        shards = [Histogram("h", buckets=buckets) for _ in range(8)]
        for value, shard in observations:
            whole.observe(value)
            shards[shard].observe(value)
        merged = Histogram("h", buckets=buckets)
        for shard in shards:
            merged.merge_from(shard)
        assert merged.bucket_counts == whole.bucket_counts
        assert merged.count == whole.count
        assert merged.min == whole.min and merged.max == whole.max
        assert merged.sum == pytest.approx(whole.sum, rel=1e-12)
        for q in [0.0, 0.5, 0.99, 1.0, *quantiles]:
            assert merged.percentile(q) == whole.percentile(q)

    def test_fleet_percentile_is_the_percentile_of_the_union(self):
        """Folding every instance's ``update.update_duration_s`` out of
        ``FleetSilkRoad.merged_registry()`` reads the same percentiles as
        one histogram fed all the instances' update durations."""
        result = run_fleet(
            seed=7, num_switches=3, scale=0.3, horizon_s=12.0, updates_per_min=240.0,
            config=SilkRoadConfig(insertion_rate_per_s=100.0),  # loaded CPU
        )
        union = Histogram("u", buckets=LATENCY_BUCKETS_S)
        for _index, _generation, switch in result.fleet.instances():
            for timing in switch.coordinator.timings:
                union.observe(timing.t_finish - timing.t_req)
        fleet_wide = Histogram("f", buckets=LATENCY_BUCKETS_S)
        per_instance = [
            instrument
            for name, instrument in result.fleet.merged_registry().instruments()
            if name.endswith(".update.update_duration_s")
        ]
        assert len(per_instance) == 3
        for histogram in per_instance:
            fleet_wide.merge_from(histogram)
        assert fleet_wide.count == union.count > 100
        assert 0.0 < union.percentile(0.99) < union.max  # not a stream of zeros
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert fleet_wide.percentile(q) == union.percentile(q)


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
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.get("live").value == 7.0
        assert clone.fingerprint() == registry.fingerprint()
