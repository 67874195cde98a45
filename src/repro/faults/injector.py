"""Delivers a :class:`~repro.faults.plan.FaultPlan` into a live simulation.

The injector schedules each fault event on the simulation's
:class:`~repro.netsim.events.EventQueue` (at internal priority, so a fault
at time *t* lands after the table updates but before the packet arrivals of
*t* — the same ordering real hardware failures would observe) and drives
the switch's fault-injection surface:

* ``inject_cpu_crash`` / ``inject_cpu_stall`` for CPU faults,
* a composed ``write_fault`` hook for install-failure windows (window
  membership is checked against the simulation clock; per-write coin flips
  come from a private seeded RNG, so runs stay deterministic),
* ``drop_notifications`` / ``delay_notifications`` for the learning-filter
  notification hop.

With no plan attached — or an empty one — the switch's fault hooks stay
unset and the hot path is untouched (the benchmark suite guards this).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..netsim.events import EventQueue
from ..netsim.simulator import PRIO_INTERNAL
from ..obs.events import (
    FAULT_BATCH_DELAY,
    FAULT_CPU_CRASH,
    FAULT_CPU_STALL,
    FAULT_INSTALL_FAIL_WINDOW,
    FAULT_NOTIFICATION_LOSS,
)
from .plan import FaultEvent, FaultKind, FaultPlan

#: Mixed into the plan seed for the write-fault coin flips, so they are
#: independent of the draws that generated the plan itself.
_WRITE_FAULT_SALT = 0x5EEDFA17

#: The flight-recorder event each fault kind is delivered as.
_FAULT_EVENT = {
    FaultKind.CPU_CRASH: FAULT_CPU_CRASH,
    FaultKind.CPU_STALL: FAULT_CPU_STALL,
    FaultKind.INSTALL_FAIL_WINDOW: FAULT_INSTALL_FAIL_WINDOW,
    FaultKind.NOTIFICATION_LOSS: FAULT_NOTIFICATION_LOSS,
    FaultKind.BATCH_DELAY: FAULT_BATCH_DELAY,
}


class FaultInjector:
    """Replays one fault plan against one switch."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self.jobs_lost_to_crashes = 0
        self._rng = random.Random((plan.seed or 0) ^ _WRITE_FAULT_SALT)
        self._fail_until = float("-inf")
        self._fail_probability = 0.0
        self._queue: Optional[EventQueue] = None
        self._switch = None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def attach(self, switch, queue: EventQueue) -> None:
        """Schedule every plan event; call after the switch is bound.

        ``switch`` is duck-typed: anything exposing the SilkRoad fault
        surface (``inject_cpu_crash``, ``inject_cpu_stall``,
        ``set_write_fault``, ``drop_notifications``,
        ``delay_notifications``) works.
        """
        self._switch = switch
        self._queue = queue
        needs_write_hook = any(
            e.kind is FaultKind.INSTALL_FAIL_WINDOW for e in self.plan
        )
        if needs_write_hook:
            switch.set_write_fault(self._write_fault)
        for event in self.plan:
            when = max(event.time, queue.now)

            def fire(e: FaultEvent = event) -> None:
                self._deliver(e)

            queue.schedule(when, fire, PRIO_INTERNAL)

    def _deliver(self, event: FaultEvent) -> None:
        self.injected[event.kind] += 1
        switch = self._switch
        recorder = getattr(switch, "recorder", None)
        if recorder is not None:
            recorder.record(
                self._queue.now,
                _FAULT_EVENT[event.kind],
                None,
                event.duration_s,
                event.count,
                event.probability,
                event.delay_s,
            )
        if event.kind is FaultKind.CPU_CRASH:
            self.jobs_lost_to_crashes += switch.inject_cpu_crash(event.duration_s)
        elif event.kind is FaultKind.CPU_STALL:
            switch.inject_cpu_stall(event.duration_s)
        elif event.kind is FaultKind.INSTALL_FAIL_WINDOW:
            # Overlapping windows: keep the farther deadline and the
            # fresher probability.
            self._fail_until = max(
                self._fail_until, self._queue.now + event.duration_s
            )
            self._fail_probability = event.probability
        elif event.kind is FaultKind.NOTIFICATION_LOSS:
            switch.drop_notifications(event.count)
        else:  # BATCH_DELAY
            switch.delay_notifications(event.count, event.delay_s)

    def _write_fault(self, key: bytes) -> bool:
        if self._queue.now > self._fail_until:
            return False
        return self._rng.random() < self._fail_probability
