"""Tests for the 3-step PCC update coordinator."""

from __future__ import annotations

from typing import List, Set

import pytest

from repro.core.pcc_update import Phase, UpdateCoordinator
from repro.netsim.packet import DirectIP, VirtualIP
from repro.netsim.updates import UpdateEvent, UpdateKind

VIP = VirtualIP.parse("20.0.0.1:80")
DIP = DirectIP.parse("10.0.0.9:80")


class Harness:
    """Wires a coordinator to inspectable fake callbacks."""

    def __init__(self, pending: Set[bytes] = frozenset()):
        self.pending = set(pending)
        self.executed: List[UpdateEvent] = []
        self.finished: List[VirtualIP] = []
        self.marked: List[bytes] = []
        self.started: List[VirtualIP] = []
        self.clock = 0.0
        self.coord = UpdateCoordinator(
            pending_keys=lambda vip: set(self.pending),
            execute=self.executed.append,
            finish=self.finished.append,
            mark=self.marked.append,
            now=lambda: self.clock,
            start=self.started.append,
        )

    def request(self, time=0.0):
        self.clock = time
        self.coord.request(UpdateEvent(time, VIP, UpdateKind.REMOVE, DIP))


class TestImmediateExecution:
    def test_no_pending_executes_and_finishes_synchronously(self):
        h = Harness()
        h.request()
        assert len(h.executed) == 1
        assert h.finished == [VIP]
        assert h.coord.phase(VIP) is Phase.IDLE
        assert h.coord.updates_completed == 1
        assert h.started == [VIP]


class TestThreeSteps:
    def test_step1_waits_for_pre_request_pending(self):
        h = Harness(pending={b"old-1", b"old-2"})
        h.request()
        assert h.coord.phase(VIP) is Phase.STEP1
        assert not h.executed
        h.clock = 0.01
        h.coord.on_installed(VIP, b"old-1")
        assert h.coord.phase(VIP) is Phase.STEP1
        h.coord.on_installed(VIP, b"old-2")
        assert h.executed  # t_exec reached
        assert h.coord.phase(VIP) is Phase.IDLE  # nothing marked -> finished

    def test_step1_arrivals_marked_and_block_finish(self):
        h = Harness(pending={b"old"})
        h.request()
        assert h.coord.note_new_pending(VIP, b"new-1")  # marked in step 1
        assert h.marked == [b"new-1"]
        h.coord.on_installed(VIP, b"old")
        # Executed, but the marked connection still pends -> step 2.
        assert h.executed
        assert h.coord.phase(VIP) is Phase.STEP2
        h.coord.on_installed(VIP, b"new-1")
        assert h.coord.phase(VIP) is Phase.IDLE
        assert h.finished == [VIP]

    def test_step2_arrivals_not_marked(self):
        h = Harness(pending={b"old"})
        h.request()
        h.coord.note_new_pending(VIP, b"s1")
        h.coord.on_installed(VIP, b"old")
        assert h.coord.phase(VIP) is Phase.STEP2
        assert not h.coord.note_new_pending(VIP, b"s2")
        assert h.marked == [b"s1"]

    def test_aborted_pending_unblocks(self):
        h = Harness(pending={b"old"})
        h.request()
        h.coord.on_pending_aborted(VIP, b"old")  # conn died pre-install
        assert h.executed
        assert h.coord.phase(VIP) is Phase.IDLE

    def test_aborted_marked_unblocks_finish(self):
        h = Harness(pending={b"old"})
        h.request()
        h.coord.note_new_pending(VIP, b"m")
        h.coord.on_installed(VIP, b"old")
        assert h.coord.phase(VIP) is Phase.STEP2
        h.coord.on_pending_aborted(VIP, b"m")
        assert h.coord.phase(VIP) is Phase.IDLE

    def test_timings_recorded(self):
        h = Harness(pending={b"old"})
        h.request(time=1.0)
        h.clock = 1.5
        h.coord.on_installed(VIP, b"old")
        timing = h.coord.timings[0]
        assert timing.t_req == 1.0
        assert timing.t_exec == 1.5
        assert timing.t_finish == 1.5
        assert timing.step1_s == pytest.approx(0.5)
        assert timing.step2_s == 0.0


class TestQueueing:
    def test_updates_serialize_per_vip(self):
        h = Harness(pending={b"old"})
        h.request()
        h.coord.request(UpdateEvent(0.1, VIP, UpdateKind.ADD, DIP))
        assert h.coord.queue_depth(VIP) == 1
        assert len(h.executed) == 0
        h.pending.clear()  # nothing pending when the queued one begins
        h.coord.on_installed(VIP, b"old")
        # First update executes+finishes; the queued one then runs through.
        assert len(h.executed) == 2
        assert h.coord.updates_completed == 2
        assert len(h.started) == 2

    def test_unrelated_vip_ignored_by_notifications(self):
        h = Harness(pending={b"old"})
        other = VirtualIP.parse("20.0.0.2:80")
        h.request()
        h.coord.on_installed(other, b"old")  # different VIP: no effect
        assert h.coord.phase(VIP) is Phase.STEP1


class _FakeTimer:
    def __init__(self, delay, action):
        self.delay = delay
        self.action = action
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class WatchdogHarness:
    """Coordinator with a per-step deadline and a hand-cranked scheduler."""

    def __init__(self, pending: Set[bytes] = frozenset(), deadline: float = 1.0):
        self.pending = set(pending)
        self.executed: List[UpdateEvent] = []
        self.finished: List[VirtualIP] = []
        self.at_risk: List[tuple] = []
        self.timers: List[_FakeTimer] = []
        self.clock = 0.0
        self.coord = UpdateCoordinator(
            pending_keys=lambda vip: set(self.pending),
            execute=self.executed.append,
            finish=self.finished.append,
            mark=lambda key: None,
            now=lambda: self.clock,
            step_deadline_s=deadline,
            schedule=self._schedule,
            on_at_risk=lambda vip, keys, phase: self.at_risk.append(
                (vip, set(keys), phase)
            ),
        )

    def _schedule(self, delay, action):
        timer = _FakeTimer(delay, action)
        self.timers.append(timer)
        return timer

    def request(self, time=0.0):
        self.clock = time
        self.coord.request(UpdateEvent(time, VIP, UpdateKind.REMOVE, DIP))

    def fire_latest(self):
        timer = self.timers[-1]
        assert not timer.cancelled, "firing a cancelled watchdog"
        self.clock += timer.delay
        timer.action()


class TestWatchdogs:
    def test_requires_schedule_callback(self):
        with pytest.raises(ValueError, match="schedule"):
            UpdateCoordinator(
                pending_keys=lambda vip: set(),
                execute=lambda e: None,
                finish=lambda v: None,
                mark=lambda k: None,
                now=lambda: 0.0,
                step_deadline_s=1.0,
            )

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError, match="step_deadline_s"):
            UpdateCoordinator(
                pending_keys=lambda vip: set(),
                execute=lambda e: None,
                finish=lambda v: None,
                mark=lambda k: None,
                now=lambda: 0.0,
                step_deadline_s=0.0,
                schedule=lambda d, a: None,
            )

    def test_step1_deadline_forces_exec(self):
        h = WatchdogHarness(pending={b"stuck-1", b"stuck-2"})
        h.request()
        assert h.coord.phase(VIP) is Phase.STEP1
        h.fire_latest()
        # Forced past step 1: executed, nothing marked, so finished too.
        assert h.executed and h.finished == [VIP]
        assert h.coord.phase(VIP) is Phase.IDLE
        assert h.at_risk == [(VIP, {b"stuck-1", b"stuck-2"}, Phase.STEP1)]
        assert h.coord.watchdog_forced_steps == 1
        assert h.coord.at_risk_reclassified == 2

    def test_step2_deadline_forces_finish(self):
        h = WatchdogHarness(pending={b"old"})
        h.request()
        h.coord.note_new_pending(VIP, b"marked")
        h.coord.on_installed(VIP, b"old")
        assert h.coord.phase(VIP) is Phase.STEP2
        h.fire_latest()
        assert h.finished == [VIP]
        assert h.at_risk == [(VIP, {b"marked"}, Phase.STEP2)]

    def test_completed_step_cancels_watchdog(self):
        h = WatchdogHarness(pending={b"old"})
        h.request()
        h.coord.on_installed(VIP, b"old")  # step 1 completes normally
        assert h.coord.phase(VIP) is Phase.IDLE
        assert all(t.cancelled for t in h.timers)
        assert h.coord.watchdog_forced_steps == 0

    def test_stale_timer_is_ignored(self):
        h = WatchdogHarness(pending={b"old"})
        h.request()
        step1_timer = h.timers[-1]
        h.coord.note_new_pending(VIP, b"marked")
        h.coord.on_installed(VIP, b"old")  # now in STEP2, new timer armed
        assert h.coord.phase(VIP) is Phase.STEP2
        # Fire the (cancelled) step-1 timer anyway: must be a no-op.
        step1_timer.action()
        assert h.coord.phase(VIP) is Phase.STEP2
        assert h.coord.watchdog_forced_steps == 0

    def test_queued_update_proceeds_after_forced_finish(self):
        h = WatchdogHarness(pending={b"stuck"})
        h.request()
        h.coord.request(UpdateEvent(0.1, VIP, UpdateKind.ADD, DIP))
        assert h.coord.queue_depth(VIP) == 1
        h.pending.clear()
        h.fire_latest()
        # Forced past the stuck key; the queued update then ran through.
        assert len(h.executed) == 2
        assert h.coord.updates_completed == 2

    def test_no_deadline_never_schedules(self):
        h = Harness(pending={b"old"})
        h.request()
        assert h.coord.step_deadline_s is None


def span_doc(start, end, kind, step1_s, step2_s, marks, events):
    """A ``pcc_update`` span document for VIP/DIP, keys in emitted order."""
    return {
        "name": "pcc_update",
        "start": start,
        "end": end,
        "duration": end - start,
        "attrs": {
            "vip": "20.0.0.1:80",
            "kind": kind,
            "dip": "10.0.0.9:80",
            "step1_s": step1_s,
            "step2_s": step2_s,
        },
        "marks": marks,
        "events": events,
    }


class TestUpdateRecords:
    """``UpdateTimings`` is the one record of an update.  The expected
    documents were captured from the ``Tracer`` spans the commit before
    the tracer's removal (5eec159) emitted for these three scenarios."""

    def docs(self, coord):
        return [timing.to_dict() for timing in coord.timings]

    def plain(self):
        h = Harness(pending={b"old"})
        h.request(time=1.0)
        h.coord.note_new_pending(VIP, b"new")
        h.clock = 1.5
        h.coord.on_installed(VIP, b"old")
        h.clock = 1.75
        h.coord.on_installed(VIP, b"new")
        expected = span_doc(
            1.0, 1.75, "remove", 0.5, 0.25,
            {"t_req": 1.0, "t_exec": 1.5, "t_finish": 1.75},
            [
                {"name": "t_req", "t": 1.0, "pending_connections": 1},
                {"name": "t_exec", "t": 1.5, "marked_connections": 1},
            ],
        )
        return h.coord, [expected]

    def queued(self):
        h = Harness(pending={b"old"})
        h.request(time=2.0)
        h.clock = 2.25
        h.coord.request(UpdateEvent(2.25, VIP, UpdateKind.ADD, DIP))
        h.pending.clear()
        h.clock = 2.5
        h.coord.on_installed(VIP, b"old")
        first = span_doc(
            2.0, 2.5, "remove", 0.5, 0.0,
            {"t_req": 2.0, "t_exec": 2.5, "t_finish": 2.5},
            [
                {"name": "t_req", "t": 2.0, "pending_connections": 1},
                {"name": "t_exec", "t": 2.5, "marked_connections": 0},
            ],
        )
        # The queued update's t_req is the instant it began, not 2.25.
        second = span_doc(
            2.5, 2.5, "add", 0.0, 0.0,
            {"t_req": 2.5, "t_exec": 2.5, "t_finish": 2.5},
            [
                {"name": "t_req", "t": 2.5, "pending_connections": 0},
                {"name": "t_exec", "t": 2.5, "marked_connections": 0},
            ],
        )
        return h.coord, [first, second]

    def forced(self):
        h = WatchdogHarness(pending={b"stuck-1", b"stuck-2"})
        h.request(time=3.0)
        h.coord.note_new_pending(VIP, b"marked")
        h.fire_latest()  # step 1 forced at 4.0
        h.fire_latest()  # step 2 forced at 5.0
        expected = span_doc(
            3.0, 5.0, "remove", 1.0, 1.0,
            {
                "t_req": 3.0,
                "watchdog_step1": 4.0,
                "t_exec": 4.0,
                "watchdog_step2": 5.0,
                "t_finish": 5.0,
            },
            [
                {"name": "t_req", "t": 3.0, "pending_connections": 2},
                {"name": "watchdog_step1", "t": 4.0, "at_risk": 2},
                {"name": "t_exec", "t": 4.0, "marked_connections": 1},
                {"name": "watchdog_step2", "t": 5.0, "at_risk": 1},
            ],
        )
        return h.coord, [expected]

    @pytest.mark.parametrize("scenario", ["plain", "queued", "forced"])
    def test_to_dict_is_the_span_document(self, scenario):
        import json

        coord, expected = getattr(self, scenario)()
        docs = self.docs(coord)
        assert docs == expected
        # Byte for byte: key order included.
        assert json.dumps(docs) == json.dumps(expected)

    @pytest.mark.parametrize("scenario", ["plain", "queued", "forced"])
    def test_chrome_trace_from_records(self, scenario):
        from repro.obs import to_chrome_trace, validate_chrome_trace

        coord, expected = getattr(self, scenario)()
        doc = to_chrome_trace(spans=coord.timings)
        assert validate_chrome_trace(doc) == []
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [(e["ts"], e["dur"]) for e in complete] == [
            (d["start"] * 1e6, d["duration"] * 1e6) for d in expected
        ]
        assert complete[0]["args"]["mark.t_exec"] == expected[0]["marks"]["t_exec"]
        marks = [e for e in doc["traceEvents"] if e.get("cat") == "span.mark"]
        assert all(m["ph"] == "i" for m in marks)
        assert [m["name"] for m in marks] == [
            name for d in expected for name in d["marks"]
        ]

    def test_retention_is_bounded_and_the_loss_countable(self):
        from repro.core.pcc_update import MAX_TIMINGS

        h = Harness()
        driven = MAX_TIMINGS + 50
        for i in range(driven):
            h.request(time=float(i))  # nothing pending: finishes at once
        assert len(h.coord.timings) == MAX_TIMINGS
        assert h.coord.updates_completed == driven
        # The oldest went first; the newest is the last one driven.
        assert h.coord.timings[0].t_req == 50.0
        assert h.coord.timings[-1].t_req == float(driven - 1)
