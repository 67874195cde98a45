"""The 3-step per-connection-consistent update coordinator (§4.3, Figure 9).

A DIP-pool update cannot simply rewrite VIPTable: connections that arrived
but are not yet installed in ConnTable (*pending connections*) would have
their first packets matched against the old pool and their later packets
against the new one.  The coordinator serializes updates per VIP and walks
each through three steps:

* **Step 1** — from the request (``t_req``): every new connection of the
  VIP is marked in the TransitTable; wait until every connection that
  arrived *before* ``t_req`` is installed in ConnTable.
* **Step 2** — execute (``t_exec``): the DIP pool change is applied and
  VIPTable exposes (old, new) versions; ConnTable misses consult the
  TransitTable — hit means old version, miss means new.  Wait until every
  *marked* connection is installed.
* **Step 3** — finish (``t_finish``): drop the old version from VIPTable
  and clear the TransitTable.

Updates requested while one is in flight queue and run back-to-back.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set

from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.updates import UpdateEvent, UpdateKind
from ..obs.metrics import LATENCY_BUCKETS_S, MetricRegistry, Scope

#: Finished-update records a coordinator keeps (the oldest go first), so a
#: long-lived ``repro serve`` session holds a bounded history.  Sized above
#: the largest per-switch update count any runner, benchmark workload or
#: test produces (under 1 K today): ``faults/chaos.py:_count_overdue`` and
#: the merge tests read ``timings`` as *every* update of a run.  What a
#: longer session loses is ``updates_completed_total - len(timings)``.
MAX_TIMINGS = 4096


class Phase(enum.Enum):
    IDLE = "idle"
    STEP1 = "step1"  # t_req reached, waiting for pre-request pending conns
    STEP2 = "step2"  # executed, waiting for marked conns


@dataclass
class _VipUpdate:
    phase: Phase = Phase.IDLE
    active: Optional[UpdateEvent] = None
    #: queued (event, on_finished) pairs behind the active update.
    queued: Deque = field(default_factory=deque)
    #: completion callback for the active update (fired at t_finish).
    on_finished: Optional[Callable] = None
    awaiting_exec: Set[bytes] = field(default_factory=set)
    marked: Set[bytes] = field(default_factory=set)
    #: The active update's record, filled in as its steps complete.
    timing: Optional["UpdateTimings"] = None
    #: Armed per-step watchdog (an :class:`~repro.netsim.events.EventHandle`
    #: or anything with ``cancel()``); ``None`` while no step deadline runs.
    watchdog: Optional[object] = None


@dataclass(slots=True)
class UpdateTimings:
    """The one record of a 3-step update's life: Figure 11's ``t_req`` /
    ``t_exec`` / ``t_finish`` plus what was waited on at each transition.

    Built at ``t_req`` by the coordinator, completed at ``t_finish`` and
    kept in :attr:`UpdateCoordinator.timings`; :meth:`to_dict` is the span
    document the telemetry dumps and ``/telemetry`` serve.
    """

    vip: VirtualIP
    kind: UpdateKind
    dip: DirectIP
    t_req: float
    #: connections pending at ``t_req`` (step 1 waits for these)
    pending_connections: int
    t_exec: float = 0.0
    #: connections marked during step 1 (step 2 waits for these)
    marked_connections: int = 0
    t_finish: float = 0.0
    #: keys a watchdog reclassified at-risk when it forced the step (it
    #: fires at the instant the step ends: step 1 at ``t_exec``, step 2 at
    #: ``t_finish``); ``None`` when the step completed on its own.
    step1_at_risk: Optional[int] = None
    step2_at_risk: Optional[int] = None

    @property
    def step1_s(self) -> float:
        return self.t_exec - self.t_req

    @property
    def step2_s(self) -> float:
        return self.t_finish - self.t_exec

    def to_dict(self) -> Dict[str, object]:
        """The ``pcc_update`` span document (schema: docs/observability.md)."""
        marks: Dict[str, float] = {}
        events = []

        def mark(name: str, t: float, **attrs: int) -> None:
            marks[name] = t
            if attrs:
                events.append({"name": name, "t": t, **attrs})

        mark("t_req", self.t_req, pending_connections=self.pending_connections)
        if self.step1_at_risk is not None:
            mark("watchdog_step1", self.t_exec, at_risk=self.step1_at_risk)
        mark("t_exec", self.t_exec, marked_connections=self.marked_connections)
        if self.step2_at_risk is not None:
            mark("watchdog_step2", self.t_finish, at_risk=self.step2_at_risk)
        mark("t_finish", self.t_finish)
        return {
            "name": "pcc_update",
            "start": self.t_req,
            "end": self.t_finish,
            "duration": self.t_finish - self.t_req,
            "attrs": {
                "vip": str(self.vip),
                "kind": self.kind.value,
                "dip": str(self.dip),
                "step1_s": self.step1_s,
                "step2_s": self.step2_s,
            },
            "marks": marks,
            "events": events,
        }


class UpdateCoordinator:
    """Drives 3-step updates for all VIPs of one switch.

    The coordinator owns no tables; it calls back into the switch:

    * ``pending_keys(vip)`` — keys of that VIP currently pending,
    * ``execute(event)`` — apply the pool change + VIPTable transition
      (called at ``t_exec``),
    * ``finish(vip)`` — drop the old version / clear filter bookkeeping
      (called at ``t_finish``),
    * ``mark(key)`` — write the key into the TransitTable,
    * ``now()`` — simulation clock.

    Every update leaves one :class:`UpdateTimings` record in
    :attr:`timings` (the newest :data:`MAX_TIMINGS`, in ``t_finish``
    order): the Figure 11 timeline with the pending and marked connection
    counts at each transition.  The coordinator counts into the
    ``metrics`` scope it is handed (a private registry of its own when
    built without one); those instruments are the only store, and
    ``updates_requested`` and friends are read-only views of them.

    **Watchdogs.**  With ``step_deadline_s`` set (and a ``schedule``
    callback to arm timers), each step gets a deadline: a step-1 or step-2
    wait that overruns *force-advances* instead of stalling every queued
    update behind a connection that will never install (crashed CPU, lost
    notification, shed job).  The still-pending keys are handed to
    ``on_at_risk`` — the switch reclassifies them as at-risk, since their
    protection window closed early and their eventual install may move
    them across versions.  Forced steps are counted and noted on the
    update's record.
    """

    def __init__(
        self,
        pending_keys: Callable[[VirtualIP], Set[bytes]],
        execute: Callable[[UpdateEvent], None],
        finish: Callable[[VirtualIP], None],
        mark: Callable[[bytes], None],
        now: Callable[[], float],
        start: Optional[Callable[[VirtualIP], None]] = None,
        metrics: Scope = None,
        step_deadline_s: Optional[float] = None,
        schedule: Optional[Callable[[float, Callable[[], None]], object]] = None,
        on_at_risk: Optional[Callable[[VirtualIP, Set[bytes], Phase], None]] = None,
    ) -> None:
        if step_deadline_s is not None and step_deadline_s <= 0:
            raise ValueError("step_deadline_s must be positive or None")
        if step_deadline_s is not None and schedule is None:
            raise ValueError("step_deadline_s requires a schedule callback")
        self._pending_keys = pending_keys
        self._execute = execute
        self._finish = finish
        self._mark = mark
        self._now = now
        self._start = start or (lambda vip: None)
        self.step_deadline_s = step_deadline_s
        self._schedule = schedule
        self._on_at_risk = on_at_risk
        self._vips: Dict[VirtualIP, _VipUpdate] = {}
        #: VIPs with an update in step 1 or 2: for any other VIP,
        #: :meth:`note_new_pending` and :meth:`on_installed` do nothing.
        self.busy_vips: Set[VirtualIP] = set()
        self.timings: Deque[UpdateTimings] = deque(maxlen=MAX_TIMINGS)
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_requested = metrics.counter(
            "updates_requested_total", "DIP-pool updates requested"
        )
        self._m_completed = metrics.counter(
            "updates_completed_total", "updates that reached t_finish"
        )
        self._m_queued = metrics.counter(
            "updates_queued_total", "requests queued behind an in-flight update"
        )
        self._m_step1 = metrics.histogram(
            "step1_duration_s",
            buckets=LATENCY_BUCKETS_S,
            help="t_exec - t_req: wait for pre-request pending connections",
        )
        self._m_step2 = metrics.histogram(
            "step2_duration_s",
            buckets=LATENCY_BUCKETS_S,
            help="t_finish - t_exec: wait for marked connections",
        )
        self._m_total = metrics.histogram(
            "update_duration_s",
            buckets=LATENCY_BUCKETS_S,
            help="t_finish - t_req: whole 3-step update",
        )
        self._m_watchdog = metrics.counter(
            "watchdog_forced_steps_total",
            "update steps force-advanced past their deadline",
        )
        self._m_at_risk = metrics.counter(
            "at_risk_keys_total",
            "pending keys reclassified at-risk by a forced step",
        )

    updates_requested = property(lambda self: int(self._m_requested.value))
    updates_completed = property(lambda self: int(self._m_completed.value))
    watchdog_forced_steps = property(lambda self: int(self._m_watchdog.value))
    at_risk_reclassified = property(lambda self: int(self._m_at_risk.value))

    def phase(self, vip: VirtualIP) -> Phase:
        state = self._vips.get(vip)
        return state.phase if state is not None else Phase.IDLE

    def queue_depth(self, vip: VirtualIP) -> int:
        state = self._vips.get(vip)
        return len(state.queued) if state is not None else 0

    # ------------------------------------------------------------------
    # Operator-facing
    # ------------------------------------------------------------------

    def request(
        self,
        event: UpdateEvent,
        on_finished: Optional[Callable[[VirtualIP, UpdateTimings], None]] = None,
    ) -> None:
        """An operator requests a DIP-pool update (t_req if idle).

        ``on_finished``, when given, is called as ``on_finished(vip,
        timings)`` once *this* update reaches ``t_finish`` — after the
        switch's own finish hook ran, before the next queued update
        begins.  The serving mode's admin-initiated drains use it to
        track completion precisely instead of polling the phase.
        """
        self._m_requested.value += 1.0
        state = self._vips.get(event.vip)
        if state is None:
            state = self._vips[event.vip] = _VipUpdate()
        if state.phase is not Phase.IDLE:
            state.queued.append((event, on_finished))
            self._m_queued.value += 1.0
            return
        self._begin(state, event, on_finished)

    def _begin(
        self,
        state: _VipUpdate,
        event: UpdateEvent,
        on_finished: Optional[Callable] = None,
    ) -> None:
        state.phase = Phase.STEP1
        self.busy_vips.add(event.vip)
        state.active = event
        state.on_finished = on_finished
        state.awaiting_exec = set(self._pending_keys(event.vip))
        state.marked = set()
        state.timing = UpdateTimings(
            vip=event.vip,
            kind=event.kind,
            dip=event.dip,
            t_req=self._now(),
            pending_connections=len(state.awaiting_exec),
        )
        self._start(event.vip)
        self._arm_watchdog(event.vip, state)
        self._maybe_exec(event.vip, state)

    # ------------------------------------------------------------------
    # Watchdogs
    # ------------------------------------------------------------------

    def _arm_watchdog(self, vip: VirtualIP, state: _VipUpdate) -> None:
        """(Re)arm the per-step deadline for the step just entered."""
        self._cancel_watchdog(state)
        if self.step_deadline_s is None:
            return
        phase = state.phase

        def fire() -> None:
            state.watchdog = None
            self._watchdog_expired(vip, state, phase)

        state.watchdog = self._schedule(self.step_deadline_s, fire)

    def _cancel_watchdog(self, state: _VipUpdate) -> None:
        if state.watchdog is not None:
            state.watchdog.cancel()
            state.watchdog = None

    def _watchdog_expired(self, vip: VirtualIP, state: _VipUpdate, phase: Phase) -> None:
        if state.phase is not phase:
            # The step completed between scheduling and firing; stale timer.
            return
        if phase is Phase.STEP1:
            stuck = set(state.awaiting_exec)
            state.awaiting_exec.clear()
            state.timing.step1_at_risk = len(stuck)
        else:
            stuck = set(state.marked)
            state.marked.clear()
            state.timing.step2_at_risk = len(stuck)
        self._m_watchdog.value += 1.0
        self._m_at_risk.value += float(len(stuck))
        if self._on_at_risk is not None and stuck:
            self._on_at_risk(vip, stuck, phase)
        if phase is Phase.STEP1:
            self._maybe_exec(vip, state)
        else:
            self._maybe_finish(vip, state)

    # ------------------------------------------------------------------
    # Data-plane/CPU notifications from the switch
    # ------------------------------------------------------------------

    def note_new_pending(self, vip: VirtualIP, key: bytes) -> bool:
        """A new connection of ``vip`` became pending.

        In step 1 it is marked in the TransitTable (returns True); in any
        other phase the TransitTable is not written.
        """
        state = self._vips.get(vip)
        if state is None or state.phase is not Phase.STEP1:
            return False
        self._mark(key)
        state.marked.add(key)
        return True

    def on_installed(self, vip: VirtualIP, key: bytes) -> None:
        """The CPU finished installing ``key`` into ConnTable."""
        state = self._vips.get(vip)
        if state is None or state.phase is Phase.IDLE:
            return
        if state.phase is Phase.STEP1:
            state.awaiting_exec.discard(key)
            self._maybe_exec(vip, state)
        elif state.phase is Phase.STEP2:
            state.marked.discard(key)
            self._maybe_finish(vip, state)

    def on_pending_aborted(self, vip: VirtualIP, key: bytes) -> None:
        """A pending connection died before being installed."""
        state = self._vips.get(vip)
        if state is None or state.phase is Phase.IDLE:
            return
        if state.phase is Phase.STEP1:
            state.awaiting_exec.discard(key)
            state.marked.discard(key)
            self._maybe_exec(vip, state)
        elif state.phase is Phase.STEP2:
            state.marked.discard(key)
            self._maybe_finish(vip, state)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _maybe_exec(self, vip: VirtualIP, state: _VipUpdate) -> None:
        if state.phase is not Phase.STEP1 or state.awaiting_exec:
            return
        state.phase = Phase.STEP2
        state.timing.t_exec = self._now()
        state.timing.marked_connections = len(state.marked)
        if state.marked:
            self._arm_watchdog(vip, state)
        else:
            self._cancel_watchdog(state)
        assert state.active is not None
        self._execute(state.active)
        self._maybe_finish(vip, state)

    def _maybe_finish(self, vip: VirtualIP, state: _VipUpdate) -> None:
        if state.phase is not Phase.STEP2 or state.marked:
            return
        self._cancel_watchdog(state)
        timing = state.timing
        state.timing = None
        timing.t_finish = self._now()
        self.timings.append(timing)
        self._m_completed.value += 1.0
        self._m_step1.observe(timing.step1_s)
        self._m_step2.observe(timing.step2_s)
        self._m_total.observe(timing.t_finish - timing.t_req)
        state.phase = Phase.IDLE
        self.busy_vips.discard(vip)
        state.active = None
        callback = state.on_finished
        state.on_finished = None
        self._finish(vip)
        if callback is not None:
            callback(vip, timing)
        if state.queued:
            next_event, next_callback = state.queued.popleft()
            self._begin(state, next_event, next_callback)
