"""Tests for the columnar Timeline and the epoch TimelineSampler."""

from __future__ import annotations

import pickle

import pytest

from repro.netsim.events import EventQueue
from repro.obs.metrics import MetricRegistry
from repro.obs.timeline import SAMPLE_PRIORITY, Timeline, TimelineSampler


class TestTimeline:
    def test_record_epoch_backfills_new_columns(self):
        tl = Timeline(period_s=1.0)
        tl.record_epoch(0.0, {"a": 1.0})
        tl.record_epoch(1.0, {"a": 2.0, "b": 5.0})
        assert tl.column("a") == [1.0, 2.0]
        # b did not exist at epoch 0: zero-backfilled.
        assert tl.column("b") == [0.0, 5.0]

    def test_record_epoch_pads_missing_columns(self):
        tl = Timeline(period_s=1.0)
        tl.record_epoch(0.0, {"a": 1.0, "b": 2.0})
        tl.record_epoch(1.0, {"a": 3.0})
        assert tl.column("b") == [2.0, 0.0]

    def test_unknown_column_raises(self):
        tl = Timeline(period_s=1.0)
        with pytest.raises(KeyError):
            tl.column("missing")

    def test_merge_adds_elementwise_and_unions_columns(self):
        a = Timeline(period_s=1.0)
        b = Timeline(period_s=1.0)
        for t in (0.0, 1.0):
            a.record_epoch(t, {"x": 1.0, "only_a": 2.0})
            b.record_epoch(t, {"x": 10.0, "only_b": 3.0})
        a.merge(b)
        assert a.column("x") == [11.0, 11.0]
        assert a.column("only_a") == [2.0, 2.0]
        assert a.column("only_b") == [3.0, 3.0]

    def test_merge_rejects_grid_mismatch(self):
        a = Timeline(period_s=1.0)
        b = Timeline(period_s=1.0)
        a.record_epoch(0.0, {"x": 1.0})
        b.record_epoch(0.5, {"x": 1.0})
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(ValueError):
            Timeline(period_s=1.0).merge(Timeline(period_s=2.0))

    def test_merged_classmethod_and_empty(self):
        assert Timeline.merged(()) is None
        a = Timeline(period_s=1.0)
        a.record_epoch(0.0, {"x": 1.0})
        b = Timeline(period_s=1.0)
        b.record_epoch(0.0, {"x": 2.0})
        out = Timeline.merged([a, b])
        assert out.column("x") == [3.0]
        # Source timelines untouched.
        assert a.column("x") == [1.0]

    def test_fingerprint_is_bit_exact_and_order_independent(self):
        def build(order):
            tl = Timeline(period_s=0.5)
            for t in (0.0, 0.5):
                tl.record_epoch(t, {k: float(i) for i, k in enumerate(order)})
            return tl

        assert build("abc").fingerprint() != build("abd").fingerprint()
        tl = build("abc")
        fp = tl.fingerprint()
        # repr-level sensitivity: a 1-ulp change moves the digest.
        tl.columns["a"][0] += 1e-16 if tl.columns["a"][0] else 1.0
        assert tl.fingerprint() != fp

    def test_to_dict_carries_fingerprint(self):
        tl = Timeline(period_s=1.0)
        tl.record_epoch(0.0, {"x": 1.0})
        doc = tl.to_dict()
        assert doc["fingerprint"] == tl.fingerprint()
        assert doc["columns"]["x"] == [1.0]

    def test_pickle_round_trip(self):
        tl = Timeline(period_s=1.0)
        tl.record_epoch(0.0, {"x": 1.5})
        clone = pickle.loads(pickle.dumps(tl))
        assert clone.fingerprint() == tl.fingerprint()


class TestTimelineSummary:
    """Per-column statistics (the ``series`` block of ``repro pcc --format json``);
    the statistics/percentile cases live in tests/netsim/test_telemetry.py
    under the IDs they had against the deleted ``Series``."""

    @staticmethod
    def ramp(values):
        tl = Timeline(period_s=1.0)
        for t, v in enumerate(values):
            tl.record_epoch(float(t), {"x": v})
        return tl

    def test_single_epoch(self):
        stats = self.ramp([7.0]).summary()["x"]
        assert stats["min"] == stats["p50"] == stats["p99"] == stats["max"] == 7.0

    def test_empty_timeline_has_no_series(self):
        assert Timeline(period_s=1.0).summary() == {}

    def test_backfilled_epochs_count_as_zero(self):
        tl = Timeline(period_s=1.0)
        tl.record_epoch(0.0, {"a": 1.0})
        tl.record_epoch(1.0, {"a": 1.0, "late": 4.0})
        assert tl.summary()["late"]["min"] == 0.0
        assert tl.summary()["late"]["mean"] == 2.0


class TestTimelineSampler:
    def make_registry(self):
        registry = MetricRegistry()
        registry.counter("inserts_total").inc(3)
        registry.gauge("occupancy").set(7.0)
        hist = registry.histogram("delay_s", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_attach_schedules_absolute_epochs(self):
        queue = EventQueue()
        sampler = TimelineSampler(self.make_registry(), period_s=1.0)
        count = sampler.attach(queue, horizon_s=3.0)
        assert count == 4  # t = 0, 1, 2, 3
        queue.run_until(10.0)
        assert sampler.timeline.epochs == [0.0, 1.0, 2.0, 3.0]

    def test_sample_snapshots_all_instrument_kinds(self):
        registry = self.make_registry()
        sampler = TimelineSampler(registry, period_s=1.0, prefix="s1.")
        sampler.sample(0.0)
        registry.counter("inserts_total").inc(2)
        sampler.sample(1.0)
        tl = sampler.timeline
        assert tl.column("s1.inserts_total") == [3.0, 5.0]
        assert tl.column("s1.occupancy") == [7.0, 7.0]
        assert tl.column("s1.delay_s.count") == [2.0, 2.0]
        assert tl.column("s1.delay_s.sum") == [pytest.approx(0.55)] * 2

    def test_raising_callback_gauge_records_zero(self):
        registry = self.make_registry()

        def boom():
            raise RuntimeError("probe died")

        registry.gauge("bad_probe").set_function(boom)
        sampler = TimelineSampler(registry, period_s=1.0)
        sampler.sample(0.0)
        assert sampler.callback_errors == 1
        assert sampler.timeline.column("bad_probe") == [0.0]
        # The healthy instruments still sampled.
        assert sampler.timeline.column("inserts_total") == [3.0]

    def test_shard_grids_are_float_identical(self):
        """Two samplers attached to queues with different clock histories
        still sample the exact same absolute epochs."""
        grids = []
        for _ in range(2):
            queue = EventQueue()
            sampler = TimelineSampler(self.make_registry(), period_s=0.3)
            sampler.attach(queue, horizon_s=2.0)
            queue.run_until(5.0)
            grids.append(sampler.timeline.epochs)
        assert grids[0] == grids[1]
        mergeable = Timeline.merged(
            [Timeline(0.3), Timeline(0.3)]
        )  # trivially merges
        assert mergeable is not None

    def test_sample_priority_runs_after_same_instant_events(self):
        from repro.netsim.simulator import PRIO_ARRIVAL

        registry = MetricRegistry()
        counter = registry.counter("events_total")
        queue = EventQueue()
        sampler = TimelineSampler(registry, period_s=1.0)
        sampler.attach(queue, horizon_s=1.0)
        # An arrival scheduled at the same instant as the epoch must be
        # visible in that epoch's sample.
        queue.schedule(1.0, lambda: counter.inc(), PRIO_ARRIVAL)
        assert SAMPLE_PRIORITY > PRIO_ARRIVAL
        queue.run_until(2.0)
        assert sampler.timeline.column("events_total") == [0.0, 1.0]
