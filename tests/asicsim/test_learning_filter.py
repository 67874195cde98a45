"""Tests for the learning filter (connection learning, §4.1)."""

from __future__ import annotations

import pytest

from repro.asicsim.learning_filter import LearningFilter


class TestOfferAndDedup:
    def test_offer_accumulates(self):
        lf = LearningFilter(capacity=10, timeout=1e-3)
        assert lf.offer(b"a", 0.0) is None
        assert lf.offer(b"b", 0.0) is None
        assert lf.occupancy == 2

    def test_duplicates_merged(self):
        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.offer(b"a", 0.0)
        lf.offer(b"a", 0.0001)  # second packet of the same connection
        assert lf.occupancy == 1
        assert lf.deduplicated == 1

    def test_flush_on_full(self):
        lf = LearningFilter(capacity=3, timeout=10.0)
        assert lf.offer(b"a", 0.0) is None
        assert lf.offer(b"b", 0.0) is None
        batch = lf.offer(b"c", 0.0)
        assert batch is not None
        assert batch.reason == "full"
        assert len(batch) == 3
        assert lf.occupancy == 0
        assert lf.flushes_full == 1

    def test_first_seen_preserved(self):
        lf = LearningFilter(capacity=2, timeout=10.0)
        lf.offer(b"a", 1.0)
        batch = lf.offer(b"b", 2.0)
        times = {e.key: e.first_seen for e in batch.events}
        assert times[b"a"] == 1.0
        assert times[b"b"] == 2.0


class TestTimeout:
    def test_poll_before_deadline_returns_none(self):
        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.offer(b"a", 0.0)
        assert lf.poll(0.0005) is None

    def test_poll_at_deadline_flushes(self):
        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.offer(b"a", 0.0)
        deadline = lf.next_deadline()
        batch = lf.poll(deadline)
        assert batch is not None
        assert batch.reason == "timeout"
        assert lf.flushes_timeout == 1

    def test_deadline_float_consistency(self):
        # poll() fired exactly at next_deadline() must flush, even for
        # awkward float values (regression: now - oldest >= timeout can
        # round differently than oldest + timeout).
        for oldest in (35.123456789, 0.1, 1e6 + 0.987654321):
            lf = LearningFilter(capacity=10, timeout=1e-3)
            lf.offer(b"a", oldest)
            assert lf.poll(lf.next_deadline()) is not None

    def test_no_deadline_when_empty(self):
        lf = LearningFilter()
        assert lf.next_deadline() is None
        assert lf.poll(100.0) is None

    def test_deadline_tracks_oldest_event(self):
        lf = LearningFilter(capacity=10, timeout=1.0)
        lf.offer(b"a", 5.0)
        lf.offer(b"b", 5.9)
        assert lf.next_deadline() == pytest.approx(6.0)


class TestForceFlush:
    def test_flush_drains(self):
        lf = LearningFilter()
        lf.offer(b"a", 0.0)
        batch = lf.flush(1.0)
        assert batch is not None and len(batch) == 1
        assert lf.flush(2.0) is None

    def test_forced_reason_not_counted_as_timeout(self):
        # Regression: end-of-run drains were labelled "timeout", inflating
        # the fig18 timeout-flush accounting.
        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.offer(b"a", 0.0)
        batch = lf.flush(0.5)
        assert batch.reason == "forced"
        assert lf.flushes_forced == 1
        assert lf.flushes_timeout == 0
        assert lf.flushes_full == 0

    def test_forced_counter_metric(self):
        from repro.obs.metrics import MetricRegistry

        registry = MetricRegistry()
        lf = LearningFilter(
            capacity=10, timeout=1e-3, metrics=registry.scope("lf")
        )
        lf.offer(b"a", 0.0)
        lf.flush(0.5)
        counters = {
            name: inst.value
            for name, inst in registry.instruments()
            if inst.kind == "counter"
        }
        assert counters["lf.flushes_forced_total"] == 1.0
        assert counters["lf.flushes_timeout_total"] == 0.0

    def test_contains(self):
        lf = LearningFilter()
        lf.offer(b"a", 0.0)
        assert b"a" in lf
        assert b"b" not in lf


class TestRearm:
    def _events(self, count, prefix=b"k"):
        from repro.asicsim.learning_filter import LearnEvent

        return [
            LearnEvent(key=prefix + bytes(str(i), "ascii"), metadata=(), first_seen=0.0)
            for i in range(count)
        ]

    def test_rearm_returns_empty_list_when_not_full(self):
        lf = LearningFilter(capacity=10, timeout=1e-3)
        assert lf.rearm(self._events(3), 1.0) == []
        assert lf.occupancy == 3
        assert lf.rearmed == 3

    def test_rearm_over_twice_capacity_flushes_every_fill(self):
        # Regression: a `batch is None` guard used to suppress the second
        # full-flush within one rearm call, pinning occupancy at capacity.
        lf = LearningFilter(capacity=4, timeout=10.0)
        batches = lf.rearm(self._events(9), 1.0)
        assert len(batches) == 2
        assert all(b.reason == "full" for b in batches)
        assert all(len(b) == 4 for b in batches)
        assert lf.occupancy == 1  # 9 = 4 + 4 + 1; buffer NOT stuck at capacity
        assert lf.flushes_full == 2

    def test_rearm_stamps_now_and_keeps_key_hash(self):
        from repro.asicsim.learning_filter import LearnEvent

        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.rearm(
            [LearnEvent(key=b"a", metadata=(1,), first_seen=0.0, key_hash=42)],
            7.0,
        )
        batch = lf.flush(8.0)
        (event,) = batch.events
        assert type(event) is LearnEvent
        assert event == LearnEvent(key=b"a", metadata=(1,), first_seen=7.0, key_hash=42)
        assert event.first_seen == 7.0
        assert event.key_hash == 42
        assert event.metadata == (1,)

    def test_offer_builds_learn_events(self):
        from repro.asicsim.learning_filter import LearnEvent

        lf = LearningFilter(capacity=10, timeout=1e-3)
        lf.offer(b"a", 1.0, metadata=("fp",), key_hash=7)
        lf.offer(b"b", 2.0)
        first, second = lf.flush(3.0).events
        assert type(first) is LearnEvent and type(second) is LearnEvent
        assert first == LearnEvent(
            key=b"a", metadata=("fp",), first_seen=1.0, key_hash=7
        )
        assert second == LearnEvent(
            key=b"b", metadata=(), first_seen=2.0, key_hash=None
        )


class TestFig18AccountingUnchanged:
    def test_end_of_run_drain_does_not_inflate_timeout_count(self):
        """The forced-reason split is pure accounting: fig18's paper-facing
        outputs (violations, adopted FPs) come from the same replay, and the
        only counter that moves is the end-of-run drain's label."""
        from repro.experiments import fig18

        kwargs = dict(
            sizes=(8,),
            timeouts=(1e-3,),
            scale=0.1,
            horizon_s=10.0,
            warmup_s=2.0,
            arrival_scale=2.0,
        )
        first = fig18.run(**kwargs)
        second = fig18.run(**kwargs)
        assert [(p.transit_bytes, p.timeout_s, p.violations, p.transit_fp_adopted)
                for p in first] == \
               [(p.transit_bytes, p.timeout_s, p.violations, p.transit_fp_adopted)
                for p in second]

    def test_flush_reasons_partition_total(self):
        from repro.experiments.common import build_workload, silkroad_factory

        workload = build_workload(
            updates_per_min=30.0, scale=0.1, seed=18, horizon_s=10.0,
            warmup_s=2.0,
        )
        _report, _conns, lb = workload.replay(silkroad_factory())
        learning = lb.learning
        total = (
            learning.flushes_full
            + learning.flushes_timeout
            + learning.flushes_forced
        )
        assert total == lb._cpu.batches  # every flush reached the CPU
        # Anything left pending at finalize drains exactly once, as "forced".
        assert learning.flushes_forced <= 1


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LearningFilter(capacity=0)
        with pytest.raises(ValueError):
            LearningFilter(timeout=0.0)
