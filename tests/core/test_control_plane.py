"""Tests for the switch-CPU insertion model."""

from __future__ import annotations

import pytest

from repro.asicsim.learning_filter import LearnBatch, LearnEvent
from repro.core.control_plane import SwitchCpu
from repro.netsim.events import EventQueue


def batch(keys, at=0.0) -> LearnBatch:
    return LearnBatch(
        events=[LearnEvent(key=k, metadata=(), first_seen=at) for k in keys],
        reason="timeout",
    )


class TestSwitchCpu:
    def test_entries_complete_at_rate(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, insertion_rate_per_s=1000.0, on_installed=lambda k, m: done.append((k, queue.now)))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b", b"c"])))
        queue.run()
        assert [k for k, _ in done] == [b"a", b"b", b"c"]
        times = [t for _, t in done]
        assert times[0] == pytest.approx(0.001)
        assert times[1] == pytest.approx(0.002)
        assert times[2] == pytest.approx(0.003)

    def test_fifo_across_batches(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(k))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b"])))
        queue.schedule(0.0005, lambda: cpu.submit_batch(batch([b"c"])))
        queue.run()
        assert done == [b"a", b"b", b"c"]

    def test_backlog_tracked(self):
        queue = EventQueue()
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b"])))
        queue.run_until(0.0015)
        assert cpu.submitted == 2
        assert cpu.completed == 1
        assert cpu.backlog == 1

    def test_submit_one_with_delay(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append((k, m, queue.now)))
        queue.schedule(0.0, lambda: cpu.submit_one(b"fp-key", ("fp",), extra_delay_s=0.002))
        queue.run()
        key, meta, t = done[0]
        assert key == b"fp-key"
        assert meta == ("fp",)
        assert t == pytest.approx(0.003)

    def test_idle_cpu_starts_immediately(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(queue.now))
        queue.schedule(5.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert done[0] == pytest.approx(5.001)

    def test_negative_clock_supported(self):
        # Warm-up replay runs the CPU at negative simulation times.
        queue = EventQueue()
        queue.now = -10.0
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(queue.now))
        queue.schedule(-10.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert done[0] == pytest.approx(-9.999)

    def test_queueing_delay(self):
        queue = EventQueue()
        cpu = SwitchCpu(queue, 10.0, lambda k, m: None)
        assert cpu.queueing_delay() == 0.0
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b"])))
        queue.run_until(0.0)
        assert cpu.queueing_delay() == pytest.approx(0.2)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SwitchCpu(EventQueue(), 0.0, lambda k, m: None)

    def test_rejects_bad_backlog(self):
        with pytest.raises(ValueError):
            SwitchCpu(EventQueue(), 1000.0, lambda k, m: None, max_backlog=0)


class TestBoundedBacklog:
    def test_excess_jobs_shed_with_callback(self):
        queue = EventQueue()
        done, shed = [], []
        cpu = SwitchCpu(
            queue, 1000.0, lambda k, m: done.append(k), max_backlog=2
        )
        cpu.on_dropped = lambda k, m, why: shed.append((k, why))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b", b"c", b"d"])))
        queue.run()
        assert done == [b"a", b"b"]
        assert shed == [(b"c", "shed"), (b"d", "shed")]
        assert cpu.shed == 2
        assert cpu.submitted == 2  # shed jobs never entered the queue

    def test_submit_one_shed_when_full(self):
        queue = EventQueue()
        shed = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None, max_backlog=1)
        cpu.on_dropped = lambda k, m, why: shed.append((k, why))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.schedule(0.0, lambda: cpu.submit_one(b"b", ()))
        queue.run()
        assert shed == [(b"b", "shed")]

    def test_capacity_frees_as_jobs_complete(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(k), max_backlog=1)
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.schedule(0.01, lambda: cpu.submit_batch(batch([b"b"])))
        queue.run()
        assert done == [b"a", b"b"]
        assert cpu.shed == 0


class TestCrashRestart:
    def test_crash_loses_outstanding_jobs(self):
        queue = EventQueue()
        done, lost = [], []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(k))
        cpu.on_dropped = lambda k, m, why: lost.append((k, why))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b", b"c"])))
        # Crash between the first and second completion.
        queue.schedule(0.0015, lambda: cpu.crash(0.01))
        queue.run()
        assert done == [b"a"]
        assert lost == [(b"b", "lost"), (b"c", "lost")]
        assert cpu.lost == 2
        assert cpu.crashes == 1
        assert cpu.backlog == 0

    def test_submissions_lost_while_down(self):
        queue = EventQueue()
        lost = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        cpu.on_dropped = lambda k, m, why: lost.append((k, why))
        queue.schedule(0.0, lambda: cpu.crash(0.1))
        queue.schedule(0.05, lambda: cpu.submit_batch(batch([b"a"])))
        queue.schedule(0.05, lambda: cpu.submit_one(b"b", ()))
        queue.run_until(0.09)
        assert lost == [(b"a", "lost"), (b"b", "lost")]
        assert cpu.down

    def test_restart_fires_hook_and_accepts_again(self):
        queue = EventQueue()
        done, restarts = [], []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(queue.now))
        cpu.on_restart = lambda: restarts.append(queue.now)
        queue.schedule(0.0, lambda: cpu.crash(0.1))
        queue.schedule(0.2, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert restarts == [pytest.approx(0.1)]
        assert not cpu.down
        assert done == [pytest.approx(0.201)]

    def test_double_crash_is_noop(self):
        queue = EventQueue()
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        queue.schedule(0.0, lambda: cpu.crash(0.1))
        queue.schedule(0.01, lambda: cpu.crash(0.1))
        queue.run()
        assert cpu.crashes == 1

    def test_crash_returns_lost_jobs_in_order(self):
        queue = EventQueue()
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        dropped = []
        cpu.on_dropped = lambda k, m, why: dropped.append(k)
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b"])))
        returned = []
        queue.schedule(0.0005, lambda: returned.append(cpu.crash(0.01)))
        queue.run_until(0.0005)
        assert returned == [2]
        assert dropped == [b"a", b"b"]


class TestInstallRetry:
    def test_transient_fault_retried_then_succeeds(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(
            queue, 1000.0, lambda k, m: done.append(queue.now),
            retry_limit=3, retry_backoff_s=0.001,
        )
        failures = [True, True, False]  # fail twice, then acknowledge
        cpu.write_fault = lambda key: failures.pop(0)
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        # First attempt at 1 ms, retries at +1 ms and +2 ms (linear backoff).
        assert done == [pytest.approx(0.004)]
        assert cpu.retries == 2
        assert cpu.completed == 1
        assert cpu.install_failures == 0

    def test_exhausted_retries_report_failure(self):
        queue = EventQueue()
        done, failed = [], []
        cpu = SwitchCpu(
            queue, 1000.0, lambda k, m: done.append(k),
            retry_limit=2, retry_backoff_s=0.001,
        )
        cpu.on_dropped = lambda k, m, why: failed.append((k, why))
        cpu.write_fault = lambda key: True  # never acknowledges
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert done == []
        assert failed == [(b"a", "install_failed")]
        assert cpu.retries == 2
        assert cpu.install_failures == 1
        assert cpu.backlog == 0

    def test_zero_retry_limit_fails_immediately(self):
        queue = EventQueue()
        failed = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        cpu.on_dropped = lambda k, m, why: failed.append((k, why))
        cpu.write_fault = lambda key: True
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert failed == [(b"a", "install_failed")]
        assert cpu.retries == 0


class TestStall:
    def test_stall_delays_outstanding_completions(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(queue.now))
        queue.schedule(0.0, lambda: cpu.submit_batch(batch([b"a", b"b"])))
        queue.schedule(0.0005, lambda: cpu.stall(0.01))
        queue.run()
        assert done == [pytest.approx(0.011), pytest.approx(0.012)]
        assert cpu.stalls == 1
        assert cpu.completed == 2  # nothing lost

    def test_stall_delays_new_submissions(self):
        queue = EventQueue()
        done = []
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: done.append(queue.now))
        queue.schedule(0.0, lambda: cpu.stall(0.01))
        queue.schedule(0.001, lambda: cpu.submit_batch(batch([b"a"])))
        queue.run()
        assert done == [pytest.approx(0.011)]

    def test_zero_stall_is_noop(self):
        queue = EventQueue()
        cpu = SwitchCpu(queue, 1000.0, lambda k, m: None)
        cpu.stall(0.0)
        assert cpu.stalls == 0
