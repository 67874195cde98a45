"""Discrete-event simulation kernel.

A minimal, deterministic event queue: events are ``(time, priority, seq)``
ordered, so simultaneous events fire in a stable order and runs are exactly
reproducible for a given seed.  Both the SilkRoad switch model (learning
flushes, CPU insertion completions, 3-step update transitions) and the
workload (connection arrivals/expiries, DIP-pool updates) are driven off
this kernel.

The heap stores plain ``(time, priority, seq, entry)`` tuples so ordering
is resolved by C-level tuple comparison; ``seq`` is unique, so the
``entry`` payload is never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

Action = Callable[[], None]


def live_head(
    heap: List[Tuple[float, int, int, "EventHandle"]]
) -> Optional[Tuple[float, int, int, "EventHandle"]]:
    """The heap's first non-cancelled item, sweeping dead heads off.

    Cancelled entries stay in the heap until they surface (cancellation is
    O(1), the sweep is amortized into the next peek); every consumer that
    peeks at the head — the kernel's own run loops and the batched replay
    driver's merge loop — must skip them identically, so the sweep lives
    here rather than being re-derived at each call site.  Returns ``None``
    when only cancelled entries remain.
    """
    pop = heapq.heappop
    while heap:
        head = heap[0]
        if not head[3].cancelled:
            return head
        pop(heap)
    return None


class EventHandle:
    """One scheduled event: heap payload and cancellation handle in one.

    A single object per event keeps :meth:`EventQueue.schedule` to one
    allocation; ``cancelled`` is a plain attribute, not a property, for the
    same reason; :meth:`EventQueue.schedule` fills its slots (no ``__init__``).
    """

    __slots__ = ("time", "action", "cancelled")

    def cancel(self) -> None:
        self.cancelled = True


_new_handle = object.__new__


class EventQueue:
    """A deterministic priority event queue with a simulation clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, action: Action, priority: int = 0) -> EventHandle:
        """Schedule ``action`` at absolute ``time``.

        Lower ``priority`` fires first among equal-time events.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        entry = _new_handle(EventHandle)
        entry.time = time
        entry.action = action
        entry.cancelled = False
        heapq.heappush(self._heap, (time, priority, next(self._seq), entry))
        return entry

    def schedule_in(self, delay: float, action: Action, priority: int = 0) -> EventHandle:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, action, priority)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _priority, _seq, entry = heapq.heappop(heap)
            if entry.cancelled:
                continue
            self.now = time
            self.processed += 1
            entry.action()
            return True
        return False

    def run_until_before(self, time: float, priority: int) -> None:
        """Fire every queued event ordered strictly before ``(time, priority)``.

        The batched simulation driver keeps *external* events (arrivals,
        ends, updates) out of the heap and dispatches them itself; before
        each one it calls this to fire the internal events (learning-filter
        polls, CPU install completions, entry expiries, fault events) that
        the scalar kernel would have fired first.  Ordering is the heap's
        own ``(time, priority)`` order; the clock advances exactly as
        :meth:`step` would, and is left at the last fired event (the caller
        sets it to the external event's time next).
        """
        heap = self._heap
        pop = heapq.heappop
        bound = (time, priority)
        while True:
            head = live_head(heap)
            if head is None or (head[0], head[1]) >= bound:
                break
            pop(heap)
            self.now = head[0]
            self.processed += 1
            head[3].action()

    def run_until(self, end_time: float) -> None:
        """Run all events with time <= ``end_time``; clock ends at end_time."""
        heap = self._heap
        pop = heapq.heappop
        while True:
            head = live_head(heap)
            if head is None or head[0] > end_time:
                break
            pop(heap)
            self.now = head[0]
            self.processed += 1
            head[3].action()
        self.now = max(self.now, end_time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally capped); returns events processed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    @property
    def empty(self) -> bool:
        return not any(not item[3].cancelled for item in self._heap)

    def __len__(self) -> int:
        return sum(1 for item in self._heap if not item[3].cancelled)
