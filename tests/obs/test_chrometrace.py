"""Tests for the Chrome Trace Event Format / Perfetto exporter."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.chrometrace import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import CONN_SYN, FAULT_CPU_CRASH
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import Timeline


def make_spans():
    """One span document, the shape ``UpdateTimings.to_dict()`` returns."""
    return [
        {
            "name": "pcc_update",
            "start": 1.0,
            "end": 1.5,
            "duration": 0.5,
            "attrs": {"vip": "20.0.0.1:80"},
            "marks": {"t_req": 1.0, "t_exec": 1.25, "t_finish": 1.5},
        }
    ]


def make_recorder() -> FlightRecorder:
    rec = FlightRecorder(source="s0")
    rec.record(0.5, CONN_SYN, b"\x01\x02", "20.0.0.1:80")
    rec.record(0.9, FAULT_CPU_CRASH, None, 0.01, 1, 0.0, 0.0)
    return rec


def make_timeline() -> Timeline:
    tl = Timeline(period_s=1.0)
    tl.record_epoch(0.0, {"conn_table.occupancy": 10.0})
    tl.record_epoch(1.0, {"conn_table.occupancy": 12.0})
    return tl


class TestExport:
    def test_spans_become_complete_events_in_microseconds(self):
        doc = to_chrome_trace(spans=make_spans())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        (event,) = complete
        assert event["name"] == "pcc_update"
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        assert event["args"]["vip"] == "20.0.0.1:80"
        assert event["args"]["mark.t_exec"] == 1.25
        marks = [e for e in doc["traceEvents"] if e.get("cat") == "span.mark"]
        assert [m["name"] for m in marks] == ["t_req", "t_exec", "t_finish"]

    def test_recorder_events_become_instants_per_category_lane(self):
        doc = to_chrome_trace(recorder=make_recorder())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"syn", "cpu_crash"}
        by_name = {e["name"]: e for e in instants}
        # Different categories land on different thread lanes.
        assert by_name["syn"]["tid"] != by_name["cpu_crash"]["tid"]
        assert by_name["syn"]["args"]["key"] == "0102"
        assert by_name["syn"]["args"]["source"] == "s0"

    def test_timeline_columns_become_counter_tracks(self):
        doc = to_chrome_trace(timeline=make_timeline())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["args"]["value"] for c in counters] == [10.0, 12.0]
        assert counters[0]["ts"] == 0.0
        assert counters[1]["ts"] == pytest.approx(1.0e6)

    def test_tracks_filter_restricts_counters(self):
        tl = make_timeline()
        tl.record_epoch(2.0, {"conn_table.occupancy": 1.0, "noise": 99.0})
        doc = to_chrome_trace(timeline=tl, tracks=["conn_table.occupancy"])
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert names == {"conn_table.occupancy"}

    def test_round_trip_through_validator_and_json(self):
        buf = io.StringIO()
        count = write_chrome_trace(
            buf,
            spans=make_spans(),
            recorder=make_recorder(),
            timeline=make_timeline(),
            metadata={"scenario": "unit"},
        )
        doc = json.loads(buf.getvalue())
        assert len(doc["traceEvents"]) == count
        assert doc["otherData"] == {"scenario": "unit"}
        assert validate_chrome_trace(doc) == []

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), spans=make_spans())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count
        assert validate_chrome_trace(doc) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_flags_field_violations(self):
        doc = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "i", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "i", "name": "x", "ts": "zero", "pid": 1, "tid": 1},
                {"ph": "i", "name": "x", "ts": 0, "pid": "p", "tid": 1},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("bad phase" in p for p in problems)
        assert any("without numeric dur" in p for p in problems)
        assert any("name missing" in p for p in problems)
        assert any("ts missing" in p for p in problems)
        assert any("pid missing" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_accepts_emitted_document(self):
        doc = to_chrome_trace(
            spans=make_spans(),
            recorder=make_recorder(),
            timeline=make_timeline(),
        )
        assert validate_chrome_trace(doc) == []
