"""Exporters: Prometheus text format and JSON/JSONL telemetry dumps.

Two machine-readable renderings of a :class:`~repro.obs.metrics.MetricRegistry`
(plus, for the JSON forms, ``spans``: a switch's update records, or the
span documents their ``to_dict()`` returns):

* :func:`to_prometheus_text` — the Prometheus exposition text format
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative
  ``_bucket{le=...}`` series).  :func:`parse_prometheus_text` is the
  matching minimal parser, used by tests and smoke checks to prove the
  output round-trips.
* :func:`telemetry_to_dict` / :func:`iter_jsonl` — one JSON-ready
  document (or one JSONL record per metric/span) carrying the full metric
  catalogue and every span handed in.
"""

from __future__ import annotations

import json
import math
from typing import Dict, IO, Iterable, Iterator, List, Optional, Tuple

from .metrics import Counter, Gauge, Histogram, MetricRegistry

__all__ = [
    "GAUGE_ERROR_COUNTER",
    "to_prometheus_text",
    "parse_prometheus_text",
    "registry_to_dict",
    "telemetry_to_dict",
    "iter_jsonl",
    "write_jsonl",
]

#: Counter bumped (in the exported registry itself) whenever a callback
#: gauge raises during an export — one bad probe must not abort the dump.
GAUGE_ERROR_COUNTER = "obs.gauge_callback_errors_total"


def _safe_value(instrument, errors: List[str]) -> float:
    """Read ``instrument.value``, mapping a raising callback gauge to NaN.

    The error is appended to ``errors`` so the caller can account for it;
    NaN is the honest sample value for "the probe blew up".
    """
    try:
        return float(instrument.value)
    except Exception as exc:
        errors.append(f"{instrument.name}: {type(exc).__name__}: {exc}")
        return float("nan")


def _note_gauge_errors(registry: MetricRegistry, errors: List[str]) -> Optional[Counter]:
    if not errors:
        return None
    counter = registry.counter(
        GAUGE_ERROR_COUNTER, help="callback gauges that raised during export"
    )
    counter.inc(len(errors))
    return counter


def span_dicts(spans: Iterable[object]) -> List[Dict[str, object]]:
    """Span documents of ``spans``: each item is one already, or a record
    (``repro.core.pcc_update.UpdateTimings``) whose ``to_dict()`` is."""
    return [span if isinstance(span, dict) else span.to_dict() for span in spans]


def _prom_name(namespace: str, name: str) -> str:
    flat = name.replace(".", "_").replace("-", "_")
    return f"{namespace}_{flat}" if namespace else flat


def _labels_text(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = list(labels.items()) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricRegistry) -> str:
    """Render a registry in the Prometheus exposition text format.

    A raising callback gauge renders as NaN and bumps
    ``obs.gauge_callback_errors_total`` instead of aborting the scrape.
    """
    lines: List[str] = []
    labels = registry.labels
    errors: List[str] = []
    for name, instrument in registry.instruments():
        prom = _prom_name(registry.namespace, name)
        if instrument.help:
            lines.append(f"# HELP {prom} {instrument.help}")
        lines.append(f"# TYPE {prom} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            value = _safe_value(instrument, errors)
            lines.append(f"{prom}{_labels_text(labels)} {_fmt_value(value)}")
        elif isinstance(instrument, Histogram):
            for bound, cumulative in instrument.cumulative_buckets():
                le = _labels_text(labels, (("le", _fmt_value(bound)),))
                lines.append(f"{prom}_bucket{le} {cumulative}")
            lines.append(f"{prom}_sum{_labels_text(labels)} {_fmt_value(instrument.sum)}")
            lines.append(f"{prom}_count{_labels_text(labels)} {instrument.count}")
    error_counter = _note_gauge_errors(registry, errors)
    if error_counter is not None:
        prom = _prom_name(registry.namespace, error_counter.name)
        lines.append(f"# HELP {prom} {error_counter.help}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{_labels_text(labels)} {_fmt_value(error_counter.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text back into ``{metric: {label_sig: value}}``.

    The label signature is the raw ``{...}`` block (empty string for none),
    which is all the round-trip checks need.  Raises ``ValueError`` on
    malformed sample lines, so it doubles as a format validator.
    """
    out: Dict[str, Dict[str, float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # name{labels} value  |  name value
        if "}" in line:
            head, _, tail = line.partition("}")
            name, _, labels = head.partition("{")
            value_text = tail.strip()
            label_sig = "{" + labels + "}"
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed sample line: {raw!r}")
            name, value_text = parts
            label_sig = ""
        name = name.strip()
        if not name:
            raise ValueError(f"malformed sample line: {raw!r}")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(f"malformed sample value in {raw!r}") from exc
        out.setdefault(name, {})[label_sig] = value
    return out


def _histogram_dict(instrument: Histogram) -> Dict[str, object]:
    """JSON form of one histogram.  ``p50`` / ``p99`` are read from the
    bucket CDF (:meth:`Histogram.percentile`), so a merged registry exports
    the percentiles of the union of its shards' observations."""
    out: Dict[str, object] = {
        "type": "histogram",
        "count": instrument.count,
        "sum": instrument.sum,
        "buckets": [
            [("+Inf" if math.isinf(bound) else bound), cumulative]
            for bound, cumulative in instrument.cumulative_buckets()
        ],
    }
    if instrument.count:
        out["min"] = instrument.min
        out["max"] = instrument.max
        out["mean"] = instrument.mean()
        out["p50"] = instrument.percentile(0.5)
        out["p99"] = instrument.percentile(0.99)
    return out


def registry_to_dict(registry: MetricRegistry) -> Dict[str, object]:
    """One JSON-ready dict per instrument, keyed by dotted metric name.

    A raising callback gauge does not abort the dump: its entry carries
    ``"error"`` instead of a number, and the registry's
    ``obs.gauge_callback_errors_total`` counter (created on first error)
    records the failure for the next scrape.
    """
    metrics: Dict[str, object] = {}
    errors: List[str] = []
    for name, instrument in registry.instruments():
        if isinstance(instrument, Histogram):
            metrics[name] = _histogram_dict(instrument)
        else:
            before = len(errors)
            value = _safe_value(instrument, errors)
            if len(errors) > before:
                metrics[name] = {
                    "type": instrument.kind,
                    "value": None,
                    "error": errors[-1],
                }
            else:
                metrics[name] = {"type": instrument.kind, "value": value}
    error_counter = _note_gauge_errors(registry, errors)
    if error_counter is not None:
        metrics[error_counter.name] = {
            "type": "counter",
            "value": error_counter.value,
        }
    doc: Dict[str, object] = {
        "namespace": registry.namespace,
        "labels": dict(registry.labels),
        # The exact-state digest, so exported telemetry carries the run's
        # identity and sharded runs can be compared without re-replaying.
        "fingerprint": registry.fingerprint(),
        "metrics": metrics,
    }
    if errors:
        doc["gauge_errors"] = list(errors)
    return doc


def telemetry_to_dict(
    registry: MetricRegistry,
    spans: Iterable[object] = (),
    series: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The full telemetry document: metrics + spans (+ time series)."""
    doc = registry_to_dict(registry)
    doc["spans"] = span_dicts(spans)
    if series is not None:
        doc["series"] = series
    if extra:
        doc.update(extra)
    return doc


def iter_jsonl(registry: MetricRegistry, spans: Iterable[object] = ()) -> Iterator[str]:
    """One JSON line per metric and per span (streaming-friendly)."""
    doc = registry_to_dict(registry)
    for name, payload in doc["metrics"].items():
        record = {"record": "metric", "name": name}
        record.update(payload)
        yield json.dumps(record, sort_keys=True, default=str)
    for span in span_dicts(spans):
        record = {"record": "span"}
        record.update(span)
        yield json.dumps(record, sort_keys=True, default=str)


def write_jsonl(stream: IO[str], records: Iterable[object]) -> int:
    """Write arbitrary records as JSONL; returns the number written."""
    written = 0
    for record in records:
        if isinstance(record, str):
            stream.write(record)
        else:
            stream.write(json.dumps(record, sort_keys=True, default=str))
        stream.write("\n")
        written += 1
    return written
