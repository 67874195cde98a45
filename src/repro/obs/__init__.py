"""Observability: metrics registry, timeline, recorder and exporters.

The measurement layer the rest of the reproduction reports through:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` primitives, all exactly mergeable, owned by a
  :class:`MetricRegistry`; components receive :class:`Scope` prefix views.
* :mod:`repro.obs.export` — Prometheus text format and JSON/JSONL dumps,
  plus the minimal parser the smoke tests round-trip through.
* :mod:`repro.obs.timeline` — :class:`TimelineSampler` /
  :class:`Timeline`: columnar registry snapshots at fixed sim-time epochs,
  mergeable across shards with bit-identical fingerprints.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder`: a bounded
  structured-event ring (connection lifecycle, slow path, updates, faults)
  with per-category drop accounting.
* :mod:`repro.obs.events` — the event catalogue: one declared
  :class:`EventKind` per event the recorder is handed.
* :mod:`repro.obs.hook` — :class:`ObsHook`: the one way a runner arms a
  recorder and a timeline sampler from an ``ObsOptions``.
* :mod:`repro.obs.chrometrace` — Chrome Trace Event Format / Perfetto
  export of spans + recorder events + timeline tracks.
* :mod:`repro.obs.forensics` — ``repro chaos --explain``: the causal timeline
  behind each PCC violation, joined from the recorder.

Every :class:`~repro.core.silkroad.SilkRoadSwitch` owns a registry
(``switch.metrics``), and its coordinator keeps one record per 3-step
PCC update (``switch.coordinator.timings``: the ``t_req`` / ``t_exec`` /
``t_finish`` of Figure 11) that the exporters render as spans; the
``python -m repro.cli pcc --format json`` command runs a scenario and
emits the full dump.
"""

from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricRegistry,
    Scope,
)
from .export import (
    GAUGE_ERROR_COUNTER,
    iter_jsonl,
    parse_prometheus_text,
    registry_to_dict,
    telemetry_to_dict,
    to_prometheus_text,
    write_jsonl,
)
from .timeline import SAMPLE_PRIORITY, Timeline, TimelineSampler
from . import events
from .events import EventKind
from .recorder import DEFAULT_RING_SIZE, FlightRecorder, RecorderEvent
from .hook import ObsHook
from .chrometrace import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from .forensics import (
    ViolationStory,
    coverage,
    explain_violations,
    format_stories,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_SIZE",
    "EventKind",
    "FlightRecorder",
    "GAUGE_ERROR_COUNTER",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricRegistry",
    "ObsHook",
    "RecorderEvent",
    "SAMPLE_PRIORITY",
    "Scope",
    "Timeline",
    "TimelineSampler",
    "ViolationStory",
    "coverage",
    "events",
    "explain_violations",
    "format_stories",
    "iter_jsonl",
    "parse_prometheus_text",
    "registry_to_dict",
    "telemetry_to_dict",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
