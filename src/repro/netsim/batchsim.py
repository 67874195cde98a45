"""Batched flow-level simulation driver.

:class:`BatchedFlowSimulator` replays the same workload as
:class:`~repro.netsim.simulator.FlowSimulator` but keeps the *external*
events — connection arrivals, connection ends, DIP-pool updates — out of
the event heap entirely.  They are static, known-in-advance streams, so
the driver merge-sorts them against the heap of *internal* events (which
load balancers and fault injectors still schedule normally) and dispatches
each in exactly the order the scalar kernel would have fired it.

**Why this is bit-identical to the scalar run.**  The scalar kernel orders
events by ``(time, priority, seq)``.  External events use the reserved
priorities ``PRIO_UPDATE``/``PRIO_ARRIVAL``/``PRIO_END`` (0/2/3) and are
scheduled in list order, so among themselves equal-time ties resolve by
stream order — which a stable sort of each stream preserves.  Internal
events only ever use other priorities (``PRIO_INTERNAL``, the timeline
sampler's 10), so the merge comparison ``(time, priority)`` is total: no
seq-level coordination between the heap and the streams is ever needed.

Arrivals are the hot stream and are handed to the load balancer in
*chunks* via ``on_connection_batch`` when it provides one (falling back to
per-arrival scalar calls otherwise).  A chunk never extends past the next
update (strictly: an equal-time update fires first), past the next
connection end, past the horizon, or past ``batch_size`` elements.
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
from heapq import heappop
from typing import Optional, Sequence

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
#: Sentinel priority ordering an exhausted stream after every real event.
_PRIO_NONE = 1 << 30


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
        queue = self.queue
        lb = self.lb
        lb.bind(queue)

        earliest = min((c.start for c in connections), default=0.0)
        queue.now = min(earliest, 0.0)

        if self.faults is not None:
            self.faults.attach(lb, queue)

        # Stable sorts preserve list order among equal keys — the same tie
        # order the scalar kernel's schedule-sequence numbers produce.
        arrivals = sorted(connections, key=_by_start)
        ends = sorted(connections, key=_by_end)
        upds = sorted(updates, key=_by_time)

        # The merge loop allocates almost nothing that survives it, but its
        # steady churn (event handles, learn events, per-conn states) walks
        # the gc's gen-0 threshold constantly.  Pause collection for the
        # replay and restore on the way out; the scalar oracle is left
        # untouched.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._merge_loop(arrivals, ends, upds, horizon_s)
        finally:
            if gc_was_enabled:
                gc.enable()

        queue.run_until(horizon_s)
        return _finish(lb, connections, horizon_s)

    def _merge_loop(self, arrivals, ends, upds, horizon_s) -> None:
        """The (time, priority)-ordered merge of streams against the heap."""
        queue = self.queue
        lb = self.lb
        batch_size = self.batch_size
        heap = queue._heap
        run_before = queue.run_until_before
        on_batch = getattr(lb, "on_connection_batch", None)
        prepare = getattr(lb, "prepare_batch", None)
        ia = ie = iu = 0
        na, ne, nu = len(arrivals), len(ends), len(upds)
        # Plain float columns for the merge comparisons: the loop reads the
        # head times on every iteration, and ``Connection.end`` is a
        # computed property.
        start_times = [c.start for c in arrivals]
        end_times = [c.end for c in ends]
        upd_times = [u.time for u in upds]
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
            if t_best > horizon_s:
                break
            if source == 2:
                if prepare is not None and ia >= prepared:
                    prepared = min(na, ia + batch_size)
                    prepare(arrivals[ia:prepared])
                # Chunk of consecutive arrivals: stop before the next
                # update (updates win equal-time ties), at the next end
                # (arrivals win those), at the horizon, or at batch_size.
                bound = min(tu, te, horizon_s)
                j = ia + 1
                limit = min(na, ia + batch_size)
                while j < limit:
                    t = start_times[j]
                    if t > bound or t >= tu:
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


def _by_start(conn: Connection) -> float:
    return conn.start


def _by_end(conn: Connection) -> float:
    return conn.end


def _by_time(event: UpdateEvent) -> float:
    return event.time
