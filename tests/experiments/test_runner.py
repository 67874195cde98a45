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


class TestTelemetry:
    def test_exact_duration_gauge_per_experiment_in_the_jsonl(self, tmp_path):
        """``repro experiments --telemetry PATH``: each experiment's wall
        time is stored once, as the exact ``runner.<name>.duration_s``
        gauge — no span, no hand-bucketed histogram beside it."""
        import json
        import re

        path = tmp_path / "runner.jsonl"
        out = runner.run_all(["table1", "economics"], telemetry=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["record"] for r in records} == {"metric"}
        gauges = {r["name"]: r for r in records}
        assert set(gauges) == {
            "runner.table1.duration_s",
            "runner.economics.duration_s",
        }
        for name in ("table1", "economics"):
            gauge = gauges[f"runner.{name}.duration_s"]
            assert gauge["type"] == "gauge" and gauge["value"] >= 0.0
            # The section header prints the same wall time, rounded.
            (shown,) = re.findall(rf"==== {name} \((\d+\.\d)s\) ====", out)
            assert float(shown) == pytest.approx(gauge["value"], abs=0.051)
