"""The per-connection chain is refcount-clean, as an exact count.

Learning filter -> CPU job -> cuckoo insert -> idle expiry allocates
objects for every connection; each must be freed by reference counting
the moment its step is done, because the batched driver pauses the cyclic
collector for the whole merge loop.  Every test here replays with the
collector off and asserts that a full ``gc.collect()`` — run while the
result is still referenced — finds **zero** unreachable objects.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.api import SilkRoadConfig, SilkRoadSwitch, run_chaos, run_fleet
from repro.asicsim.learning_filter import LearnBatch, LearnEvent
from repro.core.control_plane import SwitchCpu
from repro.experiments.common import build_workload
from repro.netsim.events import EventQueue

from ..scalar_oracle import oracle_driver


@contextmanager
def collector_off():
    """Disable the cyclic collector for the body, starting from a clean
    heap; the caller counts what a collection finds before leaving."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_single_switch_replay_leaves_no_cycle(batched):
    workload = build_workload(50.0, scale=0.05, seed=16, horizon_s=30.0)
    with collector_off():
        result = workload.replay(
            lambda: SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=50_000)),
            batched=batched,
        )
        unreachable = gc.collect()
    report, conns, switch = result
    assert switch.cpu.completed > 500  # the chain really ran
    assert unreachable == 0, f"{unreachable / len(conns):.2f} objects per connection"


def test_fleet_run_leaves_no_cycle():
    with collector_off():
        result = run_fleet(seed=7, num_switches=3, scale=0.03, horizon_s=12.0)
        unreachable = gc.collect()
    assert len(result.connections) > 200
    assert unreachable == 0


def test_chaos_run_leaves_no_cycle():
    # Crashes, lost notifications and shed jobs: the re-learn path runs.
    with collector_off():
        result = run_chaos(seed=7)
        unreachable = gc.collect()
    assert result.switch.relearns > 0
    assert unreachable == 0


def test_scalar_chaos_run_leaves_no_cycle():
    with oracle_driver(), collector_off():
        result = run_chaos(seed=7)
        unreachable = gc.collect()
    assert result.switch.relearns > 0
    assert unreachable == 0


def test_cpu_crash_stall_and_retry_leave_no_cycle():
    """Every way a job leaves ``_outstanding`` drops its handle: completed,
    failed after retries, lost to a crash — and a stall re-arms in place."""

    def batch(keys, at):
        events = [LearnEvent(key=k, metadata=(), first_seen=at) for k in keys]
        return LearnBatch(events=events, reason="timeout")

    with collector_off():
        queue = EventQueue()
        outcomes = []
        cpu = SwitchCpu(
            queue,
            insertion_rate_per_s=1000.0,
            on_installed=lambda key, meta: outcomes.append(("installed", key)),
            retry_limit=2,
            retry_backoff_s=1e-4,
        )
        cpu.on_dropped = lambda key, meta, why: outcomes.append((why, key))
        faulty = {b"retry-once": 1, b"never-acks": 99}

        def write_fault(key):
            left = faulty.get(key, 0)
            faulty[key] = left - 1
            return left > 0

        cpu.write_fault = write_fault
        first = [b"a", b"retry-once", b"never-acks", b"b"]
        queue.schedule(0.0, lambda: cpu.submit_batch(batch(first, 0.0)))
        queue.schedule(0.0015, lambda: cpu.stall(0.002))
        queue.schedule(0.02, lambda: cpu.submit_batch(batch([b"c", b"d", b"e"], 0.02)))
        queue.schedule(0.0215, lambda: cpu.crash(0.005))
        queue.schedule(0.03, lambda: cpu.submit_one(b"f", ("fp",)))
        queue.run()
        unreachable = gc.collect()
    assert sorted(outcomes) == [
        ("install_failed", b"never-acks"),
        ("installed", b"a"),
        ("installed", b"b"),
        ("installed", b"c"),
        ("installed", b"f"),
        ("installed", b"retry-once"),
        ("lost", b"d"),
        ("lost", b"e"),
    ]
    assert (cpu.stalls, cpu.crashes, cpu.retries, cpu.backlog) == (1, 1, 3, 0)
    assert unreachable == 0
