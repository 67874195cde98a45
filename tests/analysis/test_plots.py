"""Tests for terminal visualizations."""

from __future__ import annotations

import pytest

from repro.analysis.cdf import Cdf
from repro.analysis.plots import ascii_cdf, sparkline


class TestSparkline:
    def test_monotone_series_monotone_blocks(self):
        line = sparkline(range(48))
        assert line[0] == " " or ord(line[0]) <= ord(line[-1])
        assert line[-1] == "█"

    def test_constant_series(self):
        line = sparkline([5.0] * 10)
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_width_respected(self):
        assert len(sparkline(range(1000), width=20)) <= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestAsciiCdf:
    def test_basic_render(self):
        cdf = Cdf.of(range(1, 101))
        out = ascii_cdf(cdf, width=40, height=8, label="demo")
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "100%" in lines[1]
        assert "*" in out
        assert "1" in lines[-1] and "100" in lines[-1]

    def test_log_x(self):
        cdf = Cdf.of([1, 10, 100, 1000, 10_000])
        out = ascii_cdf(cdf, log_x=True)
        assert "(log x)" in out

    def test_log_x_rejects_nonpositive(self):
        cdf = Cdf.of([0.0, 1.0])
        with pytest.raises(ValueError):
            ascii_cdf(cdf, log_x=True)

    def test_size_validated(self):
        cdf = Cdf.of([1, 2])
        with pytest.raises(ValueError):
            ascii_cdf(cdf, width=2)
