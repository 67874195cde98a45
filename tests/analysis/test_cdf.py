"""Tests for empirical CDF helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import Cdf, percent_above


class TestCdf:
    def test_fractions(self):
        cdf = Cdf.of([1, 2, 3, 4])
        assert cdf.fraction_at_most(2) == pytest.approx(0.5)
        assert cdf.fraction_above(2) == pytest.approx(0.5)
        assert cdf.fraction_at_most(0) == 0.0
        assert cdf.fraction_above(4) == 0.0

    def test_quantiles(self):
        cdf = Cdf.of(range(1, 101))
        assert cdf.median == 51  # index-based empirical quantile
        assert cdf.p99 == 100
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100

    def test_quantile_bounds(self):
        cdf = Cdf.of([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf.of([])

    def test_points_cover_range(self):
        cdf = Cdf.of(range(100))
        points = cdf.points()
        assert points[0][1] > 0.0
        assert points[-1] == (99, 1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_monotonic(self, samples):
        cdf = Cdf.of(samples)
        values = sorted(set(samples))
        fracs = [cdf.fraction_at_most(v) for v in values]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


class TestPercentAbove:
    def test_basic(self):
        assert percent_above([1, 5, 10, 20], 5) == pytest.approx(50.0)
        assert percent_above([], 5) == 0.0
