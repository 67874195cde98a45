"""The observability layer's "leave it attached" promise, end to end.

* **Overhead** — a fig16-style replay with the flight recorder and the
  timeline sampler armed costs at most 15 % more wall clock than the same
  replay bare, plus 50 ms so a sub-second run does not flake on timer
  noise.  Runs are *interleaved* (bare, armed, bare, armed, …) and
  compared on best-of-5, because scheduler noise on a shared machine
  dwarfs the effect being measured.
* **Memory** — the recorder is a bounded ring: however many events a real
  replay emits, retention never exceeds the capacity and every event
  beyond it is accounted to a per-category drop counter.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.common import build_workload, silkroad_factory
from repro.obs import DEFAULT_RING_SIZE, FlightRecorder, TimelineSampler

MAX_OVERHEAD = 1.15
SLACK_S = 0.05
ROUNDS = 5

WORKLOAD = dict(
    updates_per_min=60.0, scale=0.2, seed=16, horizon_s=60.0, warmup_s=5.0
)

pytestmark = pytest.mark.slow


def _replay_seconds(attach=None) -> float:
    workload = build_workload(**WORKLOAD)
    factory = silkroad_factory()
    t0 = time.perf_counter()
    workload.replay(factory, attach=attach)
    return time.perf_counter() - t0


def _armed_attach(recorded_counts):
    def attach(sim, lb):
        # One recorder per round, dropped after the run: keeping five full
        # rings alive would make the later rounds pay for the harness's
        # garbage, not for the layer.
        recorder = FlightRecorder(capacity=DEFAULT_RING_SIZE, source="overhead")
        lb.attach_recorder(recorder)
        sampler = TimelineSampler(lb.metrics, 5.0)
        sampler.attach(sim.queue, horizon_s=WORKLOAD["horizon_s"])
        sim.queue.schedule_in(
            WORKLOAD["horizon_s"],
            lambda: recorded_counts.append(recorder.total_recorded),
        )

    return attach


def test_armed_replay_costs_at_most_15_percent():
    recorded_counts = []
    attach = _armed_attach(recorded_counts)
    bare = armed = float("inf")
    for _ in range(ROUNDS):
        bare = min(bare, _replay_seconds())
        armed = min(armed, _replay_seconds(attach=attach))
    overhead = armed / bare - 1.0
    assert armed <= bare * MAX_OVERHEAD + SLACK_S, (
        f"bare {bare:.3f}s, armed {armed:.3f}s: observability overhead "
        f"{overhead:+.1%} exceeds the {MAX_OVERHEAD - 1.0:.0%} bar"
    )
    # The armed runs must actually have recorded something, or the
    # measurement proves nothing.
    assert len(recorded_counts) == ROUNDS
    assert all(count > 0 for count in recorded_counts)


def test_recorder_memory_bounded_on_a_replay():
    """A ring far smaller than the event volume: retention stays at
    capacity, accounting stays exact, and the run still completes."""
    capacity = 1024
    recorder = FlightRecorder(capacity=capacity, source="overhead")

    def attach(sim, lb):
        lb.attach_recorder(recorder)

    _replay_seconds(attach=attach)
    assert len(recorder) == capacity
    assert recorder.total_dropped > 0
    assert recorder.total_recorded == len(recorder) + recorder.total_dropped
    summary = recorder.summary()
    assert summary["retained"] == capacity
    assert sum(summary["dropped"].values()) == recorder.total_dropped
