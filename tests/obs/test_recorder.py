"""Tests for the FlightRecorder ring and its merge contract."""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    CATALOGUE,
    CONN_FIN,
    CONN_INSTALL,
    CONN_SYN,
    FAULT_CPU_CRASH,
    UPDATE_T_FINISH,
    UPDATE_T_REQ,
)
from repro.obs.recorder import DEFAULT_RING_SIZE, FlightRecorder
from repro.options import DEFAULT_RECORD_CAPACITY

#: ``fault.cpu_crash``'s four fields, for tests that only need the event.
CRASH = (0.01, 1, 0.0, 0.0)


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_records_in_order_with_attrs(self):
        rec = FlightRecorder(capacity=8, source="s0")
        rec.record(1.0, CONN_SYN, b"k1", "v")
        rec.record(2.0, CONN_INSTALL, b"k1", 3, 2)
        events = rec.events()
        assert [e.name for e in events] == ["syn", "install"]
        assert [e.seq for e in events] == [1, 2]
        assert events[0].source == "s0"
        assert events[1].attrs == (("version", 3), ("moves", 2))
        assert events[0].to_dict()["key"] == b"k1".hex()

    def test_full_ring_drops_oldest_and_accounts_by_category(self):
        rec = FlightRecorder(capacity=3)
        rec.record(0.0, CONN_SYN, b"a", "v")
        rec.record(1.0, FAULT_CPU_CRASH, None, *CRASH)
        rec.record(2.0, CONN_FIN, b"a", True)
        rec.record(3.0, CONN_SYN, b"b", "v")  # evicts the t=0 conn event
        rec.record(4.0, UPDATE_T_FINISH, None, "v")  # evicts the t=1 fault event
        assert len(rec) == 3
        assert [e.t for e in rec.events()] == [2.0, 3.0, 4.0]
        assert [e.seq for e in rec.events()] == [3, 4, 5]
        assert rec.dropped == {"conn": 1, "fault": 1}
        # recorded counts include the dropped ones.
        assert rec.recorded == {"conn": 3, "fault": 1, "update": 1}
        assert rec.total_recorded == 5
        assert rec.total_dropped == 2

    def test_memory_bounded_by_capacity(self):
        rec = FlightRecorder(capacity=16)
        for i in range(1000):
            rec.record(float(i), CONN_SYN, bytes([i % 256]), "v")
        assert len(rec) == 16
        assert rec.total_recorded == 1000
        assert rec.total_dropped == 984
        assert rec.total_recorded == len(rec) + rec.total_dropped

    def test_filters_and_key_join(self):
        rec = FlightRecorder()
        rec.record(0.0, CONN_SYN, b"a", "v")
        rec.record(1.0, CONN_SYN, b"b", "v")
        rec.record(2.0, CONN_FIN, b"a", False)
        rec.record(3.0, UPDATE_T_REQ, None, "v", 1)
        assert [e.t for e in rec.events(category="conn", name="syn")] == [0.0, 1.0]
        assert [e.t for e in rec.events() if e.key == b"a"] == [0.0, 2.0]

    def test_summary_shape(self):
        rec = FlightRecorder(capacity=4)
        rec.record(0.0, CONN_SYN, None, "v")
        summary = rec.summary()
        assert summary["capacity"] == 4
        assert summary["retained"] == 1
        assert summary["recorded"] == {"conn": 1}
        assert summary["dropped"] == {}

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_RING_SIZE
        # One constant, two names: ``repro.obs`` re-exports the options one.
        assert DEFAULT_RING_SIZE is DEFAULT_RECORD_CAPACITY

    def test_a_value_count_that_misses_the_kind_fails_when_read(self):
        rec = FlightRecorder()
        rec.record(0.0, CONN_INSTALL, b"k", 3)  # ``moves`` is missing
        with pytest.raises(ValueError):
            rec.events()


class TestMerge:
    def test_merge_interleaves_by_time_and_adds_accounting(self):
        a = FlightRecorder(capacity=4, source="s0")
        b = FlightRecorder(capacity=4, source="s1")
        a.record(0.0, CONN_SYN, None, "v")
        a.record(2.0, CONN_FIN, None, True)
        b.record(1.0, FAULT_CPU_CRASH, None, *CRASH)
        a.merge(b)
        assert [e.t for e in a.events()] == [0.0, 1.0, 2.0]
        assert a.capacity == 8
        assert a.recorded == {"conn": 2, "fault": 1}
        # Mixed sources blank the merged recorder's own source tag but
        # each event keeps its origin.
        assert a.source == ""
        assert {e.source for e in a.events()} == {"s0", "s1"}
        # ... and its sequence number in the ring it came from.
        assert [e.seq for e in a.events()] == [1, 1, 2]

    def test_merged_classmethod_is_order_deterministic(self):
        def build():
            recs = []
            for shard in range(3):
                rec = FlightRecorder(source=f"s{shard}")
                rec.record(1.0, CONN_SYN, bytes([shard]), "v")
                recs.append(rec)
            return recs

        out1 = FlightRecorder.merged(build())
        out2 = FlightRecorder.merged(build())
        assert [e.source for e in out1.events()] == [
            e.source for e in out2.events()
        ]
        assert FlightRecorder.merged(()) is None

    def test_a_merged_recorder_is_a_read_only_archive(self):
        archive = FlightRecorder.merged([FlightRecorder(source="s0")])
        with pytest.raises(RuntimeError):
            archive.record(0.0, CONN_SYN, None, "v")

    def test_pickle_round_trip(self):
        rec = FlightRecorder(capacity=4, source="s0")
        rec.record(0.5, CONN_SYN, b"k", "10.0.0.1:80")
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.to_dicts() == rec.to_dicts()
        assert clone.capacity == rec.capacity
        clone.record(1.0, CONN_FIN, None, True)
        assert len(clone) == 2


# -- the ring against a plain-list reference ---------------------------------

KINDS = list(CATALOGUE.values())


@st.composite
def _ops(draw):
    """Random ``(t, kind, key, values)`` sequences.  Times come from a
    handful of values so the merge order's tie-breaks are exercised."""
    out = []
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=30)):
        out.append(
            (
                float(draw(st.integers(0, 3))),
                kind,
                draw(st.none() | st.binary(min_size=1, max_size=2)),
                tuple(draw(st.integers(0, 9)) for _ in kind.fields),
            )
        )
    return out


class Reference:
    """The recorder as a plain list: keep the last ``capacity`` events,
    count the rest by category."""

    def __init__(self, capacity: int, source: str) -> None:
        self.capacity = capacity
        self.source = source
        self.events = []

    def record(self, t, kind, key, values) -> None:
        self.events.append((len(self.events) + 1, t, kind, key, values))

    @property
    def retained(self):
        return self.events[-self.capacity :]

    @property
    def dropped(self) -> dict:
        evicted = self.events[: -self.capacity]
        return dict(Counter(kind.category for _s, _t, kind, _k, _v in evicted))

    @property
    def recorded(self) -> dict:
        return dict(Counter(kind.category for _s, _t, kind, _k, _v in self.events))

    def rows(self):
        """``(sort key, dict)`` per retained event, in record order."""
        for seq, t, kind, key, values in self.retained:
            out = {"seq": seq, "t": t, "category": kind.category, "name": kind.name}
            if key is not None:
                out["key"] = key.hex()
            if self.source:
                out["source"] = self.source
            out.update(zip(kind.fields, values))
            yield (t, self.source, seq), out

    def to_dicts(self):
        return [row for _order, row in self.rows()]

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "retained": len(self.retained),
            "recorded": dict(sorted(self.recorded.items())),
            "dropped": dict(sorted(self.dropped.items())),
        }


def _pair(capacity: int, source: str, ops):
    rec, ref = FlightRecorder(capacity, source), Reference(capacity, source)
    for t, kind, key, values in ops:
        rec.record(t, kind, key, *values)
        ref.record(t, kind, key, values)
    return rec, ref


def _agree(rec: FlightRecorder, ref: Reference) -> None:
    assert rec.to_dicts() == ref.to_dicts()
    assert [e.to_dict() for e in rec.events()] == ref.to_dicts()
    assert rec.dropped == ref.dropped
    assert rec.recorded == ref.recorded
    assert rec.summary() == ref.summary()
    assert rec.total_recorded == len(ref.events)


class TestAgainstReference:
    @given(_ops(), st.integers(1, 8), st.sampled_from(["", "s0"]))
    @settings(max_examples=150, deadline=None)
    def test_ring_wrap_and_pickle(self, ops, capacity, source):
        rec, ref = _pair(capacity, source, ops)
        _agree(rec, ref)
        clone = pickle.loads(pickle.dumps(rec))
        _agree(clone, ref)
        # The clone holds the declared kinds, not copies, and is a live
        # ring: it keeps recording where the original stopped.
        assert all(CATALOGUE[e.category, e.name] in KINDS for e in clone.events())
        clone.record(9.0, CONN_INSTALL, b"k", 1, 2)
        ref.record(9.0, CONN_INSTALL, b"k", (1, 2))
        _agree(clone, ref)

    @given(_ops(), st.integers(1, 8), st.integers(0, 30), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_merged_of_a_split(self, ops, capacity, cut, same_source):
        sources = ("s", "s") if same_source else ("a", "b")
        parts = [
            _pair(capacity, source, chunk)
            for source, chunk in zip(sources, (ops[:cut], ops[cut:]))
        ]
        merged = FlightRecorder.merged(rec for rec, _ref in parts)
        expected = sorted(
            (row for _rec, ref in parts for row in ref.rows()),
            key=lambda row: row[0],
        )
        assert merged.to_dicts() == [row for _order, row in expected]
        assert merged.capacity == 2 * capacity
        assert len(merged) == sum(len(ref.retained) for _rec, ref in parts)
        total = Counter()
        lost = Counter()
        for _rec, ref in parts:
            total.update(ref.recorded)
            lost.update(ref.dropped)
        assert merged.recorded == dict(total)
        assert merged.dropped == dict(lost)
        assert merged.source == ("s" if same_source else "")
        # The parts are untouched, and an archive survives the pipe too.
        for rec, ref in parts:
            _agree(rec, ref)
        clone = pickle.loads(pickle.dumps(merged))
        assert clone.to_dicts() == merged.to_dicts()
        assert clone.summary() == merged.summary()


# -- what a write costs --------------------------------------------------------

RING = 4096


def _fill(rec: FlightRecorder, n: int, kind, *values) -> None:
    key = b"\x00" * 13
    for i in range(n):
        rec.record(i * 1e-3, kind, key, *values)


def test_write_path_budget_on_a_full_ring():
    """Per retained event: the four column slots, the time, and — only
    for an event with fields — its ``*values`` tuple, the one container
    the collector has to track.  Nothing else: no per-event sequence
    number, source, name strings, dict or ``(name, value)`` pairs."""
    _fill(FlightRecorder(8), 32, CONN_INSTALL, 3, 2)  # warm any lazy state
    gc.collect()
    before = len(gc.get_objects())
    rec = FlightRecorder(RING)
    _fill(rec, 10_000, CONN_INSTALL, 3, 2)
    tracked = len(gc.get_objects()) - before
    assert gc.collect() == 0  # 10 K records left no cyclic garbage
    assert len(rec) == RING and rec.total_dropped == 10_000 - RING
    assert tracked / RING <= 1.01, tracked / RING  # parent: 3.0

    # Bytes the ring alone keeps alive: its columns, each event's time
    # and values tuple.  The key is the connection's, the kind is the
    # catalogue's, the small ints are the interpreter's.
    columns = rec._cols
    assert len(columns) == 4
    times, _kinds, _keys, values = columns
    held = sum(map(sys.getsizeof, columns))
    held += sum(map(sys.getsizeof, times)) + sum(map(sys.getsizeof, values))
    assert held / RING <= 120, held / RING  # parent: 276


def test_an_event_without_fields_allocates_no_container():
    gc.collect()
    before = len(gc.get_objects())
    rec = FlightRecorder(RING)
    _fill(rec, 10_000, CATALOGUE["conn", "evict"])
    tracked = len(gc.get_objects()) - before
    assert tracked <= 8, tracked  # the recorder and its columns
    assert all(v == () and not gc.is_tracked(v) for v in rec._cols[3])
    assert gc.collect() == 0


# -- same events as the parent commit, byte for byte -------------------------

#: ``PopSteadyObs(16, "tiny")`` at 02403da (``**attrs`` spelling, seven
#: columns): SHA-256 of ``json.dumps(recorder.to_dicts(), sort_keys=True)``,
#: ``recorder.dropped`` and ``recorder.summary()["recorded"]``, with the
#: default ring and with a 1,000-event ring (which wraps four times).
PARENT_DUMPS = {
    DEFAULT_RING_SIZE: (
        "61f941edbf8d241aa7b420db30703fed53bf7078587a35f8a24c919a39f4ea26",
        {},
    ),
    1000: (
        "1575cdd4d43d2e4a5045422d55aa0cf5995f014583648ea3b65211a4ae11ae4a",
        {"conn": 2418, "slowpath": 761, "update": 45},
    ),
}
PARENT_RECORDED = {"conn": 3185, "slowpath": 976, "update": 63}


@pytest.mark.parametrize("capacity", sorted(PARENT_DUMPS))
def test_pop_steady_obs_event_dump_equals_the_parents(capacity, monkeypatch):
    from perf import workloads

    monkeypatch.setattr(workloads, "DEFAULT_RING_SIZE", capacity)
    workload = workloads.PopSteadyObs(16, "tiny")
    workload.setup()
    workload.rep()
    recorder = workload._recorder
    digest, dropped = PARENT_DUMPS[capacity]
    dump = json.dumps(recorder.to_dicts(), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert recorder.dropped == dropped
    assert recorder.summary() == {
        "capacity": capacity,
        "retained": min(capacity, sum(PARENT_RECORDED.values())),
        "recorded": PARENT_RECORDED,
        "dropped": dropped,
    }
