"""Chrome Trace Event Format / Perfetto export.

Renders the three observability substrates into one ``trace.json`` that
``ui.perfetto.dev`` (or ``chrome://tracing``) loads directly:

* ``spans`` — a switch's update records, or their span documents —
  become complete (``"ph": "X"``) events with microsecond ``ts``/``dur``;
  span marks (``t_req`` / ``t_exec`` / ``t_finish``) become instant events
  on the same thread.
* :class:`~repro.obs.recorder.FlightRecorder` events become instant
  (``"ph": "i"``) events, one thread lane per category.
* :class:`~repro.obs.timeline.Timeline` columns become counter
  (``"ph": "C"``) tracks, one sample per epoch.

Times are simulation seconds; the Trace Event Format wants integer-ish
microseconds, so everything is scaled by 1e6.  Negative timestamps (warm-up
events) are legal in the format and render before the origin.

:func:`validate_chrome_trace` is the minimal schema check CI and the test
suite run against every emitted document — it enforces the field contract
(``ph``/``ts``/``pid``/``tid``/``name``, ``dur`` for complete events)
rather than trusting the writer.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, List, Optional, Union

from .export import span_dicts
from .recorder import FlightRecorder
from .timeline import Timeline

__all__ = ["to_chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

#: Process ids for the three substrates, so Perfetto groups them.
_PID_SPANS = 1
_PID_EVENTS = 2
_PID_COUNTERS = 3

_VALID_PHASES = {"X", "i", "C", "M", "B", "E"}


def _us(t: float) -> float:
    return t * 1e6


def _meta(pid: int, name: str) -> Dict[str, object]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "ts": 0,
        "args": {"name": name},
    }


def _thread_meta(pid: int, tid: int, name: str) -> Dict[str, object]:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def _span_events(spans: Iterable[object]) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = [_meta(_PID_SPANS, "trace spans")]
    tids: Dict[str, int] = {}
    for span in span_dicts(spans):
        name, marks = span["name"], span["marks"]
        tid = tids.get(name)
        if tid is None:
            tid = tids[name] = len(tids) + 1
            out.append(_thread_meta(_PID_SPANS, tid, name))
        args: Dict[str, object] = dict(span["attrs"])
        args.update({f"mark.{k}": v for k, v in marks.items()})
        out.append(
            {
                "name": name,
                "cat": "span",
                "ph": "X",
                "ts": _us(span["start"]),
                "dur": _us(span["end"] - span["start"]),
                "pid": _PID_SPANS,
                "tid": tid,
                "args": args,
            }
        )
        for mark_name, mark_t in sorted(marks.items(), key=lambda kv: kv[1]):
            out.append(
                {
                    "name": mark_name,
                    "cat": "span.mark",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(mark_t),
                    "pid": _PID_SPANS,
                    "tid": tid,
                }
            )
    return out


def _recorder_events(recorder: FlightRecorder) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = [_meta(_PID_EVENTS, "flight recorder")]
    tids: Dict[str, int] = {}
    for event in recorder.events():
        tid = tids.get(event.category)
        if tid is None:
            tid = tids[event.category] = len(tids) + 1
            out.append(_thread_meta(_PID_EVENTS, tid, event.category))
        args: Dict[str, object] = {str(k): v for k, v in event.attrs}
        if event.key is not None:
            args["key"] = event.key.hex()
        if event.source:
            args["source"] = event.source
        out.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": _us(event.t),
                "pid": _PID_EVENTS,
                "tid": tid,
                "args": args,
            }
        )
    return out


def _counter_events(
    timeline: Timeline, tracks: Optional[Iterable[str]] = None
) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = [_meta(_PID_COUNTERS, "timeline")]
    names = sorted(tracks) if tracks is not None else timeline.names()
    for name in names:
        column = timeline.columns.get(name)
        if column is None:
            continue
        for t, value in zip(timeline.epochs, column):
            out.append(
                {
                    "name": name,
                    "cat": "timeline",
                    "ph": "C",
                    "ts": _us(t),
                    "pid": _PID_COUNTERS,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    return out


def to_chrome_trace(
    spans: Optional[Iterable[object]] = None,
    recorder: Optional[FlightRecorder] = None,
    timeline: Optional[Timeline] = None,
    tracks: Optional[Iterable[str]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build the Trace Event Format document (JSON Object Format flavour).

    ``tracks`` restricts which timeline columns become counter tracks
    (every column by default — fine for laptop-scale runs, noisy for a
    merged fleet timeline).
    """
    events: List[Dict[str, object]] = []
    if spans is not None:
        events.extend(_span_events(spans))
    if recorder is not None:
        events.extend(_recorder_events(recorder))
    if timeline is not None:
        events.extend(_counter_events(timeline, tracks))
    doc: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(
    target: Union[str, IO[str]],
    doc: Optional[Dict[str, object]] = None,
    **sources: object,
) -> int:
    """Write a trace document to a path or stream; returns event count.

    ``doc`` is a document :func:`to_chrome_trace` already built — pass the
    one :func:`validate_chrome_trace` checked, so the bytes on disk are the
    bytes that were validated; without it the document is built here from
    ``sources``, :func:`to_chrome_trace`'s keywords.
    """
    if doc is None:
        doc = to_chrome_trace(**sources)
    text = json.dumps(doc, sort_keys=True, default=str)
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        target.write(text)
        target.write("\n")
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: Dict[str, object]) -> List[str]:
    """Schema-check a trace document; returns a list of problems (empty
    when the document conforms).

    Checks the JSON Object Format container and, per event, the Trace
    Event Format field contract: ``name``/``ph`` strings, numeric ``ts``,
    integer ``pid``/``tid``, ``dur`` on complete (``X``) events, a known
    phase code, and JSON-serializable ``args``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: ts missing or not numeric")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} missing or not an integer")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: complete event without numeric dur")
        if "args" in event:
            try:
                json.dumps(event["args"], default=str)
            except (TypeError, ValueError):
                problems.append(f"{where}: args not JSON-serializable")
    return problems
