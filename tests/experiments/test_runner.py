"""Tests for the experiment runner registry."""

from __future__ import annotations

import io

import pytest

from repro.experiments import runner


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig8",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "digest_fp", "meter_accuracy", "economics",
            "latency", "hybrid",
        }
        assert expected <= set(runner.EXPERIMENTS)

    def test_run_all_subset(self):
        out = runner.run_all(["table1", "economics"])
        assert "==== table1" in out
        assert "==== economics" in out
        assert "fig16" not in out

    def test_streaming(self):
        stream = io.StringIO()
        runner.run_all(["table1"], stream=stream)
        assert "==== table1" in stream.getvalue()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            runner.run_all(["not-an-experiment"])
