"""Delivers a :class:`~repro.faults.plan.FaultPlan` into a live simulation.

The injector schedules each fault event on the simulation's
:class:`~repro.netsim.events.EventQueue` (at internal priority, so a fault
at time *t* lands after the table updates but before the packet arrivals of
*t* — the same ordering real hardware failures would observe), counts it,
records it to the target's flight recorder (when one is attached) as its
``fault.<kind>`` event, and drives the target's fault-injection surface:

* on a switch (:data:`~repro.faults.plan.SWITCH_KINDS`),
  ``inject_cpu_crash`` / ``inject_cpu_stall`` for CPU faults, a composed
  ``write_fault`` hook for install-failure windows (window membership is
  checked against the simulation clock; per-write coin flips come from a
  private seeded RNG, so runs stay deterministic), and
  ``drop_notifications`` / ``delay_notifications`` for the learning-filter
  notification hop;
* on a fleet (:data:`~repro.faults.plan.FLEET_KINDS`),
  ``inject_switch_crash``, ``inject_partition``, ``inject_heartbeat_loss``,
  ``controller.stall`` and ``request_reassign``; a flap is one crash/reboot
  cycle that reschedules itself until its cycles are spent.

With no plan attached — or an empty one — the switch's fault hooks stay
unset and the hot path is untouched
(``tests/faults/test_injector.py`` guards this).
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
    FAULT_DETECTION_DELAY,
    FAULT_HEARTBEAT_LOSS,
    FAULT_INSTALL_FAIL_WINDOW,
    FAULT_NOTIFICATION_LOSS,
    FAULT_SWITCH_CRASH,
    FAULT_SWITCH_FLAP,
    FAULT_SWITCH_PARTITION,
    FAULT_VIP_REASSIGN,
)
from .plan import FaultEvent, FaultKind, FaultPlan

#: Mixed into the plan seed for the write-fault coin flips, so they are
#: independent of the draws that generated the plan itself.
_WRITE_FAULT_SALT = 0x5EEDFA17

#: The flight-recorder event a switch fault is delivered as (it carries the
#: plan event's four switch knobs) ...
_SWITCH_EVENT = {
    FaultKind.CPU_CRASH: FAULT_CPU_CRASH,
    FaultKind.CPU_STALL: FAULT_CPU_STALL,
    FaultKind.INSTALL_FAIL_WINDOW: FAULT_INSTALL_FAIL_WINDOW,
    FaultKind.NOTIFICATION_LOSS: FAULT_NOTIFICATION_LOSS,
    FaultKind.BATCH_DELAY: FAULT_BATCH_DELAY,
}
#: ... and a fleet fault (the switch it hits and a duration).
_FLEET_EVENT = {
    FaultKind.SWITCH_CRASH: FAULT_SWITCH_CRASH,
    FaultKind.SWITCH_PARTITION: FAULT_SWITCH_PARTITION,
    FaultKind.SWITCH_FLAP: FAULT_SWITCH_FLAP,
    FaultKind.HEARTBEAT_LOSS: FAULT_HEARTBEAT_LOSS,
    FaultKind.DETECTION_DELAY: FAULT_DETECTION_DELAY,
    FaultKind.VIP_REASSIGN: FAULT_VIP_REASSIGN,
}


class FaultInjector:
    """Replays one fault plan against one switch or one fleet."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self.jobs_lost_to_crashes = 0
        self._rng = random.Random((plan.seed or 0) ^ _WRITE_FAULT_SALT)
        self._fail_until = float("-inf")
        self._fail_probability = 0.0
        self._queue: Optional[EventQueue] = None
        self._target = None

    def attach(self, target, queue: EventQueue) -> None:
        """Schedule every plan event; call after the target is bound.

        ``target`` is duck-typed: anything exposing the fault surface the
        plan's kinds drive (see the module docstring) works.
        """
        self._target = target
        self._queue = queue
        if any(e.kind is FaultKind.INSTALL_FAIL_WINDOW for e in self.plan):
            target.set_write_fault(self._write_fault)
        for event in self.plan:
            queue.schedule(
                max(event.time, queue.now),
                lambda e=event: self._deliver(e),
                PRIO_INTERNAL,
            )

    def _deliver(self, event: FaultEvent) -> None:
        kind = event.kind
        self.injected[kind] += 1
        target, now = self._target, self._queue.now
        recorder = getattr(target, "recorder", None)
        if recorder is not None:
            if kind in _SWITCH_EVENT:
                recorder.record(
                    now,
                    _SWITCH_EVENT[kind],
                    None,
                    event.duration_s,
                    event.count,
                    event.probability,
                    event.delay_s,
                )
            else:
                recorder.record(
                    now, _FLEET_EVENT[kind], None, event.switch, event.duration_s
                )
        if kind is FaultKind.CPU_CRASH:
            self.jobs_lost_to_crashes += target.inject_cpu_crash(event.duration_s)
        elif kind is FaultKind.CPU_STALL:
            target.inject_cpu_stall(event.duration_s)
        elif kind is FaultKind.INSTALL_FAIL_WINDOW:
            # Overlapping windows: keep the farther deadline and the
            # fresher probability.
            self._fail_until = max(self._fail_until, now + event.duration_s)
            self._fail_probability = event.probability
        elif kind is FaultKind.NOTIFICATION_LOSS:
            target.drop_notifications(event.count)
        elif kind is FaultKind.BATCH_DELAY:
            target.delay_notifications(event.count, event.delay_s)
        elif kind is FaultKind.SWITCH_CRASH:
            target.inject_switch_crash(event.switch, restart_after_s=event.duration_s)
        elif kind is FaultKind.SWITCH_PARTITION:
            target.inject_partition(event.switch, heal_after_s=event.duration_s)
        elif kind is FaultKind.SWITCH_FLAP:
            self._flap(event.switch, event.duration_s, event.cycles)
        elif kind is FaultKind.HEARTBEAT_LOSS:
            target.inject_heartbeat_loss(event.switch, event.count)
        elif kind is FaultKind.DETECTION_DELAY:
            target.controller.stall(event.duration_s)
        else:  # VIP_REASSIGN
            target.request_reassign(event.vip_rank, event.target)

    def _flap(self, switch: int, cycle_s: float, cycles: int) -> None:
        """One crash/reboot cycle now; the rest self-reschedule."""
        self._target.inject_switch_crash(switch, restart_after_s=cycle_s * 0.5)
        if cycles > 1:
            self._queue.schedule(
                self._queue.now + cycle_s,
                lambda: self._flap(switch, cycle_s, cycles - 1),
                PRIO_INTERNAL,
            )

    def _write_fault(self, key: bytes) -> bool:
        if self._queue.now > self._fail_until:
            return False
        return self._rng.random() < self._fail_probability
