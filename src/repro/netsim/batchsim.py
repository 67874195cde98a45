"""Batched flow-level simulation driver: the one resumable merge loop.

:class:`BatchedFlowSimulator` replays the same workload as
:class:`~repro.netsim.simulator.FlowSimulator` but keeps the *external*
events — connection arrivals, connection ends, DIP-pool updates — out of
the event heap entirely.  They are static, known-in-advance streams, so
the driver merge-sorts them against the heap of *internal* events (which
load balancers and fault injectors still schedule normally) and dispatches
each in exactly the order the scalar kernel would have fired it.

The loop is resumable: :meth:`~BatchedFlowSimulator.feed` adds events to
the pending streams at any time, and :meth:`~BatchedFlowSimulator.run_until`
runs the merge to a time and can later continue from there.  It has two
callers.  A replay (:meth:`~BatchedFlowSimulator.run`) feeds the whole
workload once and runs to the horizon; the serving session
(:class:`~repro.serve.session.ServeSession`) feeds each drawn window and
runs to the window's end.

**Why this is bit-identical to the scalar run.**  The scalar kernel orders
events by ``(time, priority, seq)``.  External events use the reserved
priorities ``PRIO_UPDATE``/``PRIO_ARRIVAL``/``PRIO_END`` (0/2/3) and are
scheduled in list order, so among themselves equal-time ties resolve by
stream order — which a stable merge of each stream preserves, with an
event fed earlier ahead of an equal-time one fed later.  Internal events
only ever use other priorities (``PRIO_INTERNAL``, the timeline sampler's
10), so the merge comparison ``(time, priority)`` is total: no seq-level
coordination between the heap and the streams is ever needed.

Arrivals are the hot stream and are handed to the load balancer in
*chunks* via ``on_connection_batch`` when it provides one (falling back to
per-arrival scalar calls otherwise).  A chunk never extends past the next
update (strictly: an equal-time update fires first), past the next
connection end, past the run's end time, or past ``batch_size`` elements.
Internal events that fall between two arrivals of the same chunk are fired
by the batch consumer itself via
:meth:`~repro.netsim.events.EventQueue.run_until_before` — the intra-batch
ordering rule (docs/architecture.md) — so read-check-modify-write state
(TransitTable bits, ConnTable slots, the learning filter) evolves exactly
as in the scalar interleaving.

**Partitioned replay.**  The space-partitioned fleet runner
(:func:`repro.experiments.parallel.run_fleet_partitioned`) layers epoch
barriers on top of this driver as ordinary internal events at
``PRIO_INTERNAL``: they ride the heap, so the merge loop interleaves them
against the external streams exactly like any LB-scheduled event, and —
because every replica schedules the identical barrier set up front,
before the first arrival — they shift every subsequent event's heap
sequence number by the same constant on every replica.  Pairwise event
ordering is therefore untouched, which is what lets a barrier land
*inside* an arrival chunk (fired by the batch consumer's
``run_until_before`` sweep) without the owning and phantom replicas ever
observing different interleavings.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from heapq import heappop
from operator import add, attrgetter
from typing import Callable, List, Optional, Sequence

from .events import EventQueue, live_head
from .flows import Connection
from .simulator import (
    PRIO_ARRIVAL,
    PRIO_END,
    PRIO_UPDATE,
    LoadBalancer,
    SimulationReport,
    _finish,
)
from .updates import UpdateEvent

_INF = float("inf")
_start_of = attrgetter("start")
_duration_of = attrgetter("duration")
_time_of = attrgetter("time")
#: Sentinel priority ordering an exhausted stream after every real event.
_PRIO_NONE = 1 << 30


class _Stream:
    """One external event stream: its pending items sorted by time, beside
    those times as a plain float column (the merge loop compares the head
    time on every iteration).  ``times_of`` maps a list of items to their
    times; each item's time is computed once, when it is fed."""

    __slots__ = ("times_of", "items", "times")

    def __init__(self, times_of: Callable[[Sequence], List[float]]) -> None:
        self.times_of = times_of
        self.items: list = []
        self.times: List[float] = []

    def merge(self, new: Sequence) -> None:
        """Merge ``new`` into the pending items.  The sort is stable and a
        new item goes after every pending one at its time, so equal-time
        items keep the order they were fed in — the order the scalar
        kernel's schedule sequence numbers give."""
        unsorted = self.times_of(new)
        order = sorted(range(len(unsorted)), key=unsorted.__getitem__)
        new = list(map(new.__getitem__, order))
        times = list(map(unsorted.__getitem__, order))
        pending, pending_times = self.items, self.times
        if not pending_times or not times or times[0] >= pending_times[-1]:
            pending.extend(new)
            pending_times.extend(times)
            return
        # One linear pass over the pending items from the first new time
        # on: the earlier ones stay put, the rest are cut off and merged
        # back in run by run, so the tail is copied once per call rather
        # than shifted once per new item.
        lo = bisect_right(pending_times, times[0])
        tail, tail_times = pending[lo:], pending_times[lo:]
        del pending[lo:], pending_times[lo:]
        i = 0
        for t, item in zip(times, new):
            j = bisect_right(tail_times, t, i)
            if j > i:
                pending += tail[i:j]
                pending_times += tail_times[i:j]
                i = j
            pending.append(item)
            pending_times.append(t)
        pending += tail[i:]
        pending_times += tail_times[i:]

    def cut(self, n: int) -> list:
        """Remove and return the first ``n`` (dispatched) items."""
        done = self.items[:n]
        del self.items[:n]
        del self.times[:n]
        return done


class BatchedFlowSimulator:
    """Drop-in :class:`FlowSimulator` replacement with chunked arrivals.

    Same constructor contract (``faults`` is attached to the queue before
    any event is delivered) and same :class:`SimulationReport`; the only
    new knob is ``batch_size``, the arrival chunk bound.
    """

    def __init__(
        self,
        lb: LoadBalancer,
        faults: Optional[object] = None,
        batch_size: int = 256,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.lb = lb
        self.faults = faults
        self.batch_size = batch_size
        self.queue = EventQueue()
        self._arrivals = _Stream(lambda conns: list(map(_start_of, conns)))
        # ``Connection.end`` per connection, with no call: same rounding.
        self._ends = _Stream(
            lambda conns: list(map(add, map(_start_of, conns), map(_duration_of, conns)))
        )
        self._updates = _Stream(lambda updates: list(map(_time_of, updates)))

    def start(self, now: float = 0.0) -> None:
        """Bind the load balancer, set the clock to ``now`` and attach the
        fault injector: what happens once, before the first event."""
        self.lb.bind(self.queue)
        self.queue.now = now
        if self.faults is not None:
            self.faults.attach(self.lb, self.queue)

    def feed(
        self, connections: Sequence[Connection], updates: Sequence[UpdateEvent] = ()
    ) -> None:
        """Add arrivals (and their ends) and updates to the pending streams.

        Like :meth:`EventQueue.schedule`, an arrival or update earlier than
        the clock is a ``ValueError``.
        """
        now = self.queue.now
        earliest = min(
            min(map(_start_of, connections), default=now),
            min(map(_time_of, updates), default=now),
        )
        if earliest < now:
            raise ValueError(f"cannot feed an event in the past ({earliest} < {now})")
        self._arrivals.merge(connections)
        self._ends.merge(connections)
        self._updates.merge(updates)

    def run(
        self,
        connections: Sequence[Connection],
        updates: Sequence[UpdateEvent] = (),
        horizon_s: Optional[float] = None,
    ) -> SimulationReport:
        """Replay the workload; see :meth:`FlowSimulator.run`."""
        if horizon_s is None:
            horizon_s = max(
                [c.start for c in connections] + [u.time for u in updates] + [0.0]
            )
        for event in updates:
            if event.time < 0:
                raise ValueError("update events must have non-negative times")
        earliest = min((c.start for c in connections), default=0.0)
        self.start(min(earliest, 0.0))
        self.feed(connections, updates)

        # The merge loop allocates almost nothing that survives it, but its
        # steady churn (event handles, learn events, per-conn states) walks
        # the gc's gen-0 threshold constantly.  Pause collection for the
        # replay and restore on the way out; the scalar oracle is left
        # untouched.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.run_until(horizon_s)
        finally:
            if gc_was_enabled:
                gc.enable()
        return _finish(self.lb, connections, horizon_s)

    def run_until(self, t: float) -> List[Connection]:
        """Dispatch every pending event at or before ``t`` — stream heads
        and heap alike — in ``(time, priority)`` order; the clock ends at
        ``t``.  Returns the connections whose ends were dispatched, in
        dispatch order.  The streams keep only what is still pending, so
        a later call continues where this one stopped."""
        queue = self.queue
        lb = self.lb
        batch_size = self.batch_size
        heap = queue._heap
        run_before = queue.run_until_before
        on_batch = getattr(lb, "on_connection_batch", None)
        prepare = getattr(lb, "prepare_batch", None)
        arrivals, start_times = self._arrivals.items, self._arrivals.times
        ends, end_times = self._ends.items, self._ends.times
        upds, upd_times = self._updates.items, self._updates.times
        ia = ie = iu = 0
        na, ne, nu = len(arrivals), len(ends), len(upds)
        # Arrivals below index ``prepared`` have had their columnar facts
        # precomputed.  Windows span ``batch_size`` arrivals regardless of
        # where ends/updates cut the dispatch chunks — ``prepare_batch``
        # is pure per-key derivation, so priming ahead is safe and keeps
        # the vectorized passes amortized even when chunks run short.
        prepared = 0
        while True:
            ta = start_times[ia] if ia < na else _INF
            te = end_times[ie] if ie < ne else _INF
            tu = upd_times[iu] if iu < nu else _INF
            head = live_head(heap)
            if head is not None:
                t_best = head[0]
                p_best = head[1]
            else:
                t_best = _INF
                p_best = _PRIO_NONE
            # Pick the earliest source in (time, priority) order.  The
            # three external streams and the heap never share a priority,
            # so the comparison is total.  Written as float-first
            # comparisons (no tuple building): this runs once per
            # dispatched event.
            source = 0  # heap
            if tu < t_best or (tu == t_best and PRIO_UPDATE < p_best):
                t_best, p_best, source = tu, PRIO_UPDATE, 1
            if ta < t_best or (ta == t_best and PRIO_ARRIVAL < p_best):
                t_best, p_best, source = ta, PRIO_ARRIVAL, 2
            if te < t_best or (te == t_best and PRIO_END < p_best):
                t_best, p_best, source = te, PRIO_END, 3
            if t_best > t:
                break
            if source == 2:
                if prepare is not None and ia >= prepared:
                    prepared = min(na, ia + batch_size)
                    prepare(arrivals[ia:prepared])
                # Chunk of consecutive arrivals: stop before the next
                # update (updates win equal-time ties), at the next end
                # (arrivals win those), at ``t``, or at batch_size.
                bound = min(tu, te, t)
                j = ia + 1
                limit = min(na, ia + batch_size)
                while j < limit:
                    ts = start_times[j]
                    if ts > bound or ts >= tu:
                        break
                    j += 1
                chunk = arrivals[ia:j]
                ia = j
                if on_batch is not None:
                    on_batch(chunk)
                else:
                    for conn in chunk:
                        run_before(conn.start, PRIO_ARRIVAL)
                        queue.now = conn.start
                        lb.on_connection_arrival(conn)
            elif source == 0:
                # The cancelled-head sweep above already skipped dead
                # entries, so this dispatch is exactly ``queue.step()``
                # minus the re-check.
                item = heappop(heap)
                queue.now = item[0]
                queue.processed += 1
                item[3].action()
            elif source == 3:
                queue.now = te
                lb.on_connection_end(ends[ie])
                ie += 1
            else:
                queue.now = tu
                lb.apply_update(upds[iu])
                iu += 1
        queue.run_until(t)
        self._arrivals.cut(ia)
        self._updates.cut(iu)
        return self._ends.cut(ie)
