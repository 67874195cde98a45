"""Bounded structured-event ring: the :class:`FlightRecorder`.

Metrics say *how many*, the timeline says *when in aggregate*; forensics
("why did connection X break PCC?") needs the individual events.  The
recorder is a fixed-capacity ring of events — connection lifecycle,
slow-path operations, 3-step-update transitions, injected faults — cheap
enough to leave attached through a whole chaos run and bounded enough
that memory never grows past the ring.

Every event is of a declared :class:`~repro.obs.events.EventKind`
(``category`` + ``name`` + field names, :mod:`repro.obs.events`) and, for
per-connection events, carries the connection ``key`` the forensics
engine joins on.  When the ring is full the *oldest* event is evicted and
its category's drop counter incremented, so a saturated recorder reports
exactly what kind of history it lost.

Storage is *columnar* and holds only what differs from event to event:
four parallel lists — ``t``, ``kind``, ``key``, ``values`` — written
circularly.  A per-event record object would be one more tracked
container on the cyclic-GC's young generation for every event retained,
and tens of thousands of surviving containers measurably inflate every
gen-0 collection the simulation triggers — the dominant cost of leaving a
recorder attached, dwarfing the append itself.  So a write stores the
caller's time, a reference to the declared kind, the key and the bare
``*values`` tuple (the one container an event with fields costs; an event
without fields shares the empty tuple), and everything else is derived
when the ring is read: ``seq`` from ring position (the oldest retained
event is number ``dropped + 1``), ``source`` from the ring, field names
from the kind, and the per-category ``recorded`` counts as retained +
dropped.  :class:`RecorderEvent` views are materialized lazily by the
query methods, which only run after the simulation.

Recorders pickle (the sharded replay ships them back from workers; kinds
travel as catalogue references) and merge: events concatenate ordered by
``(t, source, seq)`` and drop counts add, mirroring the registry/timeline
merge contract.  A merged recorder is a read-only *archive*: its rows
come from several rings, so it carries each row's ``seq`` and ``source``
explicitly, and nothing records into it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..options import DEFAULT_RECORD_CAPACITY as DEFAULT_RING_SIZE
from .events import EventKind

__all__ = ["FlightRecorder", "RecorderEvent", "DEFAULT_RING_SIZE"]

#: One retained event as read back: ``(seq, t, kind, key, source, values)``.
Row = Tuple[int, float, EventKind, Optional[bytes], str, tuple]
_SEQ, _T, _KIND, _KEY, _SOURCE, _VALUES = range(6)


class RecorderEvent:
    """One structured event.  Immutable by convention; ``attrs`` is a
    tuple of ``(key, value)`` pairs so events hash/pickle cheaply."""

    __slots__ = ("seq", "t", "category", "name", "key", "source", "attrs")

    def __init__(
        self,
        seq: int,
        t: float,
        category: str,
        name: str,
        key: Optional[bytes] = None,
        source: str = "",
        attrs: Tuple[Tuple[str, object], ...] = (),
    ) -> None:
        self.seq = seq
        self.t = t
        self.category = category
        self.name = name
        self.key = key
        self.source = source
        self.attrs = attrs

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "t": self.t,
            "category": self.category,
            "name": self.name,
        }
        if self.key is not None:
            out["key"] = self.key.hex()
        if self.source:
            out["source"] = self.source
        out.update(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = f" key={self.key.hex()[:12]}" if self.key is not None else ""
        return f"RecorderEvent({self.category}.{self.name} t={self.t:.6f}{key})"


class FlightRecorder:
    """Fixed-capacity event ring with per-category drop accounting."""

    def __init__(self, capacity: int = DEFAULT_RING_SIZE, source: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.source = source
        #: The ``t``, ``kind``, ``key`` and ``values`` columns.
        self._cols: Tuple[list, list, list, list] = ([], [], [], [])
        #: Ring slot of the *oldest* retained event (0 until the first
        #: eviction wraps the write cursor).
        self._start = 0
        #: events evicted from the ring, per category.
        self.dropped: Dict[str, int] = {}
        #: ``(seq, source)`` of each row once this is a merged archive;
        #: ``None`` on a live ring, which derives both.
        self._origins: Optional[List[Tuple[int, str]]] = None

    # -- recording -----------------------------------------------------

    def record(
        self,
        t: float,
        kind: EventKind,
        key: Optional[bytes] = None,
        *values: object,
    ) -> None:
        """Append one event of a declared ``kind``, evicting the oldest if
        the ring is full.  ``values`` are the kind's fields, in order."""
        if self._origins is not None:
            raise RuntimeError("a merged recorder is a read-only archive")
        ts, kinds, keys, value_col = self._cols
        if len(ts) < self.capacity:
            ts.append(t)
            kinds.append(kind)
            keys.append(key)
            value_col.append(values)
        else:
            slot = self._start
            self._start = slot + 1 if slot + 1 < self.capacity else 0
            dropped = self.dropped
            evicted = kinds[slot].category
            dropped[evicted] = dropped.get(evicted, 0) + 1
            ts[slot] = t
            kinds[slot] = kind
            keys[slot] = key
            value_col[slot] = values

    # -- accounting ----------------------------------------------------

    @property
    def recorded(self) -> Dict[str, int]:
        """Events recorded per category, evicted ones included: what the
        ring retains plus what it dropped."""
        counts = dict(self.dropped)
        _ts, kinds, _keys, _values = self._cols
        for kind in kinds:
            counts[kind.category] = counts.get(kind.category, 0) + 1
        return counts

    @property
    def total_recorded(self) -> int:
        return len(self) + self.total_dropped

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def __len__(self) -> int:
        return len(self._cols[0])

    # -- views ---------------------------------------------------------

    def _rows(self) -> Iterator[Row]:
        """Retained events as :data:`Row` tuples, oldest first."""
        ts, kinds, keys, value_col = self._cols
        n = len(ts)
        start = self._start
        origins = self._origins
        # Every eviction advanced the sequence by one, so the oldest
        # retained event of a live ring is number ``dropped + 1``.
        first_seq = self.total_dropped + 1
        source = self.source
        for i in range(n):
            j = start + i
            if j >= n:
                j -= n
            seq, src = (first_seq + i, source) if origins is None else origins[j]
            yield seq, ts[j], kinds[j], keys[j], src, value_col[j]

    def events(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> List[RecorderEvent]:
        """Retained events in record order, optionally filtered."""
        out = []
        for row in self._rows():
            kind = row[_KIND]
            if category is not None and kind.category != category:
                continue
            if name is not None and kind.name != name:
                continue
            out.append(_event(row))
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        return [_event(row).to_dict() for row in self._rows()]

    def summary(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "retained": len(self),
            "recorded": dict(sorted(self.recorded.items())),
            "dropped": dict(sorted(self.dropped.items())),
        }

    # -- merge ---------------------------------------------------------

    def merge(self, other: "FlightRecorder") -> "FlightRecorder":
        """Fold another recorder in: events interleave by time, accounting
        adds, capacity extends (the merged view is an archive, not a live
        ring, so nothing is evicted by the merge itself)."""
        rows = sorted(
            list(self._rows()) + list(other._rows()),
            key=lambda row: (row[_T], row[_SOURCE], row[_SEQ]),
        )
        self.capacity = self.capacity + other.capacity
        self._cols = (
            [row[_T] for row in rows],
            [row[_KIND] for row in rows],
            [row[_KEY] for row in rows],
            [row[_VALUES] for row in rows],
        )
        self._origins = [(row[_SEQ], row[_SOURCE]) for row in rows]
        self._start = 0
        for category, count in other.dropped.items():
            self.dropped[category] = self.dropped.get(category, 0) + count
        if self.source and other.source and self.source != other.source:
            self.source = ""
        elif not self.source:
            self.source = other.source
        return self

    @classmethod
    def merged(
        cls, recorders: Iterable["FlightRecorder"]
    ) -> Optional["FlightRecorder"]:
        """A fresh recorder holding the fold of ``recorders`` in order."""
        out: Optional[FlightRecorder] = None
        for recorder in recorders:
            if out is None:
                out = cls(capacity=recorder.capacity, source=recorder.source)
                out.merge(recorder)
                out.capacity = recorder.capacity
            else:
                out.merge(recorder)
        return out


def _event(row: Row) -> RecorderEvent:
    """The public view of one row: the kind's field names joined back on."""
    seq, t, kind, key, source, values = row
    return RecorderEvent(
        seq, t, kind.category, kind.name, key, source,
        tuple(zip(kind.fields, values, strict=True)),
    )
