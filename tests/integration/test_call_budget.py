"""The host's call budget per connection on the fault-free slow path.

A connection takes five steps through a SilkRoad switch (§4.1–4.3): the
SYN misses ConnTable and is deposited in the learning filter, the filter
notifies the CPU, the CPU writes the ConnTable entry, the FIN arrives, and
the idle timeout evicts the entry.  Each step is one switch-level handler
plus its calls into the structures it models; a frame that only forwards
to another one is host cost the paper's switch does not have.  This test
counts Python-level calls per connection on a small replay, so a frame
that comes back names itself here, in seconds, instead of in a
benchmark's noise.

The counting rule: ``sys.setprofile`` "call" events of the second of two
identical replays, comprehension and lambda frames excluded (Python 3.12
inlines comprehensions, so counting them would make the number depend on
the interpreter).  The same rule on the ``pop_steady`` benchmark shape
(``build_workload(50, scale=0.5, seed=16, horizon_s=120)``, a 300 K-entry
table) gives 60.8 calls per connection before the slow path lost its
pass-through frames and 39.4 after.
"""

from __future__ import annotations

import sys

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.experiments.common import build_workload
from repro.netsim.events import EventQueue

#: Python-level calls per connection the replay below may make.  Before
#: the slow path lost its pass-through frames it made 60.5; after, 39.4.
CALLS_PER_CONNECTION = 45.0
#: Connections the replay carries and events it schedules: the frames
#: went, the simulated work did not change (2.600 events per connection).
CONNECTIONS = 2458
SCHEDULED_EVENTS = 6391

#: Frames the counting rule leaves out.
_SKIPPED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>", "<lambda>"})


def _counted_replay(monkeypatch):
    """``(connections, calls, scheduled events)`` of the second replay."""
    workload = build_workload(50.0, scale=0.1, seed=16, horizon_s=30.0)
    config = SilkRoadConfig(conn_table_capacity=300_000)
    workload.replay(lambda: SilkRoadSwitch(config))
    scheduled = [0]
    schedule = EventQueue.schedule

    def counting(self, time, action, priority=0):
        scheduled[0] += 1
        return schedule(self, time, action, priority)

    monkeypatch.setattr(EventQueue, "schedule", counting)
    calls = [0]

    def profile(frame, event, _arg) -> None:
        if event == "call" and frame.f_code.co_name not in _SKIPPED:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        _report, conns, _switch = workload.replay(lambda: SilkRoadSwitch(config))
    finally:
        sys.setprofile(None)
    # The counting wrapper is a frame of its own per event: take it out.
    return len(conns), calls[0] - scheduled[0], scheduled[0]


def test_calls_per_connection_stay_in_budget(monkeypatch):
    conns, calls, scheduled = _counted_replay(monkeypatch)
    assert conns == CONNECTIONS
    assert scheduled == SCHEDULED_EVENTS
    assert calls / conns <= CALLS_PER_CONNECTION, f"{calls / conns:.2f} calls per connection"
