"""Tests for the §7 per-stage digest experiment."""

from __future__ import annotations

import re

import pytest

from repro.experiments import multi_digest


@pytest.fixture(scope="module")
def points():
    return multi_digest.run(capacity=8_000, probes=30_000)


class TestMultiDigest:
    def test_grid(self, points):
        assert len(points) == 4
        assert {p.fill for p in points} == {"light", "heavy"}

    def test_light_fill_occupies_wide_stages(self, points):
        graded_light = next(
            p for p in points if p.design.startswith("graded") and p.fill == "light"
        )
        # Nearly everything sits in stage 0/1 (the 24/16-bit stages).
        occ = graded_light.stage_occupancy
        assert occ[0] + occ[1] > 0.95 * graded_light.resident

    def test_graded_wins_at_light_fill(self, points):
        assert multi_digest.light_fill_advantage(points) > 2.0

    def test_sram_budgets_comparable(self, points):
        graded = next(p for p in points if p.design.startswith("graded"))
        uniform = next(p for p in points if p.design.startswith("uniform"))
        assert graded.sram_bytes == pytest.approx(uniform.sram_bytes, rel=0.1)

    def test_heavy_fill_uses_narrow_stages(self, points):
        graded_heavy = next(
            p for p in points if p.design.startswith("graded") and p.fill == "heavy"
        )
        assert graded_heavy.stage_occupancy[-1] > 0

    def test_main_renders(self):
        out = multi_digest.main()
        assert "graded" in out and "advantage" in out
        # At the default seed the graded light fill sees no FP at all: the
        # zero case is stated in words, never as an infinite ratio.
        assert not re.search(r"\b(inf|nan)", out, re.IGNORECASE), out
