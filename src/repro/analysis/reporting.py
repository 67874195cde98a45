"""Plain-text table/series rendering for experiment output.

The benchmark harnesses print the same rows/series the paper's figures
plot; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_metrics(metrics: Dict[str, object], title: str = "metrics") -> str:
    """Render a metric catalogue (``registry_to_dict()['metrics']``).

    Counters/gauges print their value; histograms print count plus the
    summary statistics the exporters compute.
    """
    rows: List[Tuple[str, str, str]] = []
    for name in sorted(metrics):
        payload = metrics[name]
        if not isinstance(payload, dict):
            rows.append((name, "?", _fmt(payload)))
            continue
        kind = str(payload.get("type", "?"))
        if kind == "histogram":
            count = payload.get("count", 0)
            if count:
                detail = (
                    f"count={count} mean={_fmt(payload['mean'])} "
                    f"p50={_fmt(payload['p50'])} p99={_fmt(payload['p99'])} "
                    f"max={_fmt(payload['max'])}"
                )
            else:
                detail = "count=0"
            rows.append((name, kind, detail))
        else:
            rows.append((name, kind, _fmt(payload.get("value", 0.0))))
    return format_table(("metric", "type", "value"), rows, title=title)


def format_spans(
    spans: Sequence[Dict[str, object]], title: str = "trace spans", limit: int = 20
) -> str:
    """Render span dicts (``UpdateTimings.to_dict()``) as a table."""
    rows: List[Tuple[object, ...]] = []
    for span in spans[:limit]:
        marks = span.get("marks", {})
        marks_text = " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(marks.items(), key=lambda kv: kv[1])
        )
        attrs = span.get("attrs", {})
        attrs_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        rows.append(
            (
                span.get("name", "?"),
                span.get("start", 0.0),
                span.get("duration", 0.0),
                marks_text,
                attrs_text,
            )
        )
    if len(spans) > limit:
        title = f"{title} (first {limit} of {len(spans)})"
    return format_table(("span", "start", "duration_s", "marks", "attrs"), rows, title=title)


def format_comparison(
    title: str, paper: Dict[str, float], measured: Dict[str, float], unit: str = ""
) -> str:
    """Side-by-side paper-vs-measured table (EXPERIMENTS.md style)."""
    rows = []
    for key in paper:
        rows.append((key, paper[key], measured.get(key, float("nan")), unit))
    return format_table(("metric", "paper", "measured", "unit"), rows, title=title)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:,.1f}"
        return f"{value:.4g}"
    return str(value)
