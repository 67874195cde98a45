"""Tests for plain-text report formatting."""

from __future__ import annotations

from repro.analysis.reporting import format_comparison, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        out = format_table(
            ("name", "value"),
            [("alpha", 1), ("beta", 22_000)],
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert "alpha" in lines[3]
        assert "22,000" in out

    def test_float_formatting(self):
        out = format_table(("x",), [(0.000123,), (1234567.0,), (0.5,), (0,)])
        assert "0.000123" in out
        assert "1.23e+06" in out
        assert "0.5" in out


class TestFormatComparison:
    def test_paper_vs_measured(self):
        out = format_comparison(
            "cmp", {"sram": 27.92}, {"sram": 28.0}, unit="%"
        )
        assert "27.92" in out
        assert "28" in out
        assert "sram" in out

    def test_missing_measured_is_nan(self):
        out = format_comparison("cmp", {"a": 1.0}, {})
        assert "nan" in out
