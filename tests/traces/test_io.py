"""Tests for trace import/export."""

from __future__ import annotations

import io

import pytest

from repro.traces import FleetSynthesizer, TraceFormatError, dump_fleet, load_fleet


class TestFleetRoundTrip:
    def test_roundtrip_preserves_profiles(self):
        fleet = FleetSynthesizer(seed=5).synthesize()
        buffer = io.StringIO()
        dump_fleet(fleet, buffer)
        buffer.seek(0)
        loaded = load_fleet(buffer)
        assert loaded == fleet  # frozen dataclasses compare by value

    def test_file_roundtrip(self, tmp_path):
        fleet = FleetSynthesizer(seed=6).synthesize({})
        fleet = FleetSynthesizer(seed=6).synthesize()
        path = tmp_path / "fleet.csv"
        dump_fleet(fleet, path)
        assert load_fleet(path) == fleet

    def test_missing_columns_rejected(self):
        buffer = io.StringIO("name,kind\npop-0,pop\n")
        with pytest.raises(TraceFormatError):
            load_fleet(buffer)

    def test_bad_row_reports_line(self):
        fleet = FleetSynthesizer(seed=7).synthesize()
        buffer = io.StringIO()
        dump_fleet(fleet[:1], buffer)
        text = buffer.getvalue().replace(",pop,", ",not-a-kind,", 1)
        assert ",not-a-kind," in text
        with pytest.raises(TraceFormatError, match="line 2"):
            load_fleet(io.StringIO(text))


class TestHandleLifecycle:
    """The file handle must close on *every* exit path, including errors.

    ``_open_for`` is a context manager precisely so a
    :class:`TraceFormatError` raised mid-parse cannot leak the descriptor;
    these tests pin that by capturing every handle the module opens.
    """

    @pytest.fixture
    def opened(self, monkeypatch):
        import repro.traces.io as trace_io

        handles = []
        real_open = open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(trace_io, "open", tracking_open, raising=False)
        return handles

    def test_load_fleet_closes_on_malformed_csv(self, tmp_path, opened):
        path = tmp_path / "bad-fleet.csv"
        path.write_text("name,kind\npop-0,pop\n")  # missing columns
        with pytest.raises(TraceFormatError):
            load_fleet(path)
        assert len(opened) == 1 and opened[0].closed

    def test_load_fleet_closes_on_bad_row(self, tmp_path, opened):
        fleet = FleetSynthesizer(seed=11).synthesize()
        buffer = io.StringIO()
        dump_fleet(fleet[:1], buffer)
        path = tmp_path / "bad-row.csv"
        path.write_text(buffer.getvalue().replace(",pop,", ",not-a-kind,", 1))
        with pytest.raises(TraceFormatError):
            load_fleet(path)
        assert len(opened) == 1 and opened[0].closed

    def test_dump_and_load_close_on_success(self, tmp_path, opened):
        fleet = FleetSynthesizer(seed=12).synthesize()
        path = tmp_path / "fleet.csv"
        dump_fleet(fleet, path)
        load_fleet(path)
        assert len(opened) == 2 and all(h.closed for h in opened)

    def test_caller_supplied_handle_stays_open_on_error(self):
        buffer = io.StringIO("name,kind\npop-0,pop\n")
        with pytest.raises(TraceFormatError):
            load_fleet(buffer)
        assert not buffer.closed  # caller owns its lifecycle

