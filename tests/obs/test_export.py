"""Tests for the Prometheus/JSON/JSONL exporters."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.export import (
    GAUGE_ERROR_COUNTER,
    iter_jsonl,
    parse_prometheus_text,
    registry_to_dict,
    telemetry_to_dict,
    to_prometheus_text,
)
from repro.obs.metrics import MetricRegistry

#: One span document, the shape ``UpdateTimings.to_dict()`` returns.
SPAN = {
    "name": "pcc_update",
    "start": 0.0,
    "end": 1.0,
    "duration": 1.0,
    "attrs": {"vip": "20.0.0.1:80"},
    "marks": {"t_req": 0.0, "t_exec": 0.5, "t_finish": 1.0},
}


class Record:
    """Stands in for an update record: anything with ``to_dict()``."""

    def to_dict(self):
        return dict(SPAN)


def make_registry() -> MetricRegistry:
    registry = MetricRegistry(labels={"switch": "s1"})
    registry.counter("conn_table.inserts_total", "insertions").inc(42)
    registry.gauge("conn_table.occupancy").set(17.0)
    hist = registry.histogram("cpu.delay_s", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.05, 0.5):
        hist.observe(v)
    return registry


class TestPrometheusText:
    def test_round_trips_through_parser(self):
        registry = make_registry()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        sig = '{switch="s1"}'
        assert samples["repro_conn_table_inserts_total"][sig] == 42.0
        assert samples["repro_conn_table_occupancy"][sig] == 17.0
        buckets = samples["repro_cpu_delay_s_bucket"]
        assert buckets['{switch="s1",le="0.001"}'] == 1.0
        assert buckets['{switch="s1",le="0.1"}'] == 3.0
        assert buckets['{switch="s1",le="+Inf"}'] == 4.0
        assert samples["repro_cpu_delay_s_count"][sig] == 4.0
        assert samples["repro_cpu_delay_s_sum"][sig] == pytest.approx(0.5525)

    def test_buckets_are_cumulative_and_monotone(self):
        text = to_prometheus_text(make_registry())
        buckets = parse_prometheus_text(text)["repro_cpu_delay_s_bucket"]
        counts = [v for _sig, v in sorted(buckets.items())]
        # All cumulative counts bounded by the +Inf total.
        assert max(counts) == 4.0

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("metric_without_value\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("metric not_a_number\n")


class TestJson:
    def test_registry_dict_shape(self):
        doc = registry_to_dict(make_registry())
        assert doc["labels"] == {"switch": "s1"}
        metrics = doc["metrics"]
        assert metrics["conn_table.inserts_total"] == {
            "type": "counter",
            "value": 42.0,
        }
        hist = metrics["cpu.delay_s"]
        assert hist["count"] == 4
        assert hist["buckets"][-1][0] == "+Inf"
        assert hist["p50"] <= hist["p99"] <= hist["max"]

    def test_dump_json_is_valid_json(self):
        # The document serializes as it is: json.dumps is the dump.
        doc = telemetry_to_dict(make_registry(), [Record()], extra={"run": "unit"})
        doc = json.loads(json.dumps(doc, sort_keys=True))
        assert doc["run"] == "unit"
        assert doc["spans"] == [SPAN]

    def test_telemetry_dict_merges_extra(self):
        doc = telemetry_to_dict(make_registry(), extra={"switch": "s1"})
        assert doc["switch"] == "s1"
        assert doc["spans"] == []


def make_broken_registry() -> MetricRegistry:
    registry = make_registry()

    def boom():
        raise RuntimeError("probe died")

    registry.gauge("bad_probe").set_function(boom)
    return registry


class TestRaisingCallbackGauge:
    def test_prometheus_export_survives_and_accounts(self):
        registry = make_broken_registry()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        sig = '{switch="s1"}'
        # Healthy instruments still exported.
        assert samples["repro_conn_table_inserts_total"][sig] == 42.0
        # The bad probe renders as NaN rather than aborting the scrape.
        assert math.isnan(samples["repro_bad_probe"][sig])
        # ... and the error counter records it for the next scrape.
        assert samples["repro_obs_gauge_callback_errors_total"][sig] == 1.0
        assert registry.get(GAUGE_ERROR_COUNTER).value == 1.0

    def test_registry_dict_survives_and_reports_error(self):
        doc = registry_to_dict(make_broken_registry())
        entry = doc["metrics"]["bad_probe"]
        assert entry["value"] is None
        assert "RuntimeError" in entry["error"]
        assert doc["metrics"][GAUGE_ERROR_COUNTER]["value"] == 1.0
        assert doc["gauge_errors"] and "bad_probe" in doc["gauge_errors"][0]
        # Healthy instruments unharmed.
        assert doc["metrics"]["conn_table.inserts_total"]["value"] == 42.0

    def test_error_counter_accumulates_across_scrapes(self):
        registry = make_broken_registry()
        to_prometheus_text(registry)
        registry_to_dict(registry)
        assert registry.get(GAUGE_ERROR_COUNTER).value == 2.0

    def test_fingerprint_survives_raising_gauge(self):
        registry = make_broken_registry()
        fp1 = registry.fingerprint()
        fp2 = registry.fingerprint()
        assert fp1 == fp2  # NaN repr is stable


class TestTracerStats:
    def test_no_tracer_no_block(self):
        """The span-loss block went with the tracer (its numbers are the
        ``update.updates_*_total`` counters): spans or not, no dump has one."""
        assert "tracer" not in telemetry_to_dict(make_registry())
        assert "tracer" not in telemetry_to_dict(make_registry(), [Record()])
        assert "tracer_spans" not in to_prometheus_text(make_registry())


class TestJsonl:
    def test_one_record_per_metric_and_span(self):
        # Records and ready span documents are both accepted.
        spans = [Record(), {"switch": "s1", **SPAN}]
        records = [json.loads(line) for line in iter_jsonl(make_registry(), spans)]
        metric_names = {r["name"] for r in records if r["record"] == "metric"}
        assert metric_names == {
            "conn_table.inserts_total",
            "conn_table.occupancy",
            "cpu.delay_s",
        }
        spans = [r for r in records if r["record"] == "span"]
        assert [s["duration"] for s in spans] == [1.0, 1.0]
        assert [s.get("switch") for s in spans] == [None, "s1"]

    def test_values_finite(self):
        for line in iter_jsonl(make_registry()):
            record = json.loads(line)
            if record["record"] == "metric" and "value" in record:
                assert math.isfinite(record["value"])


class TestSwitchRecords:
    def test_update_records_from_real_run(self):
        """A replayed switch's telemetry document carries one span per
        finished update, rendered from ``coordinator.timings``."""
        from repro.experiments.common import build_workload, silkroad_factory

        workload = build_workload(
            updates_per_min=30.0, scale=0.05, seed=5, horizon_s=30.0
        )
        _report, _conns, lb = workload.replay(
            silkroad_factory(insertion_rate_per_s=20_000.0)
        )
        doc = lb.telemetry_snapshot()
        spans = doc["spans"]
        assert spans == [timing.to_dict() for timing in lb.coordinator.timings]
        assert len(spans) == lb.metrics.get("update.updates_completed_total").value > 0
        assert "tracer" not in doc
        for span in spans:
            marks, attrs = span["marks"], span["attrs"]
            assert span["name"] == "pcc_update"
            assert marks["t_req"] <= marks["t_exec"] <= marks["t_finish"]
            assert attrs["step1_s"] == pytest.approx(marks["t_exec"] - marks["t_req"])
            assert attrs["step2_s"] == pytest.approx(marks["t_finish"] - marks["t_exec"])
