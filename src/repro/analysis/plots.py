"""Terminal visualizations: sparklines and ASCII CDF plots.

The benchmark harnesses print the same *series* the paper's figures plot;
these helpers make the shapes visible directly in a terminal without any
plotting dependency.
"""

from __future__ import annotations

import math
from typing import Sequence

from .cdf import Cdf

_BLOCKS = " ▁▂▃▄▅▆▇█"

#: Bins of :func:`histogram`.
HISTOGRAM_BINS = 10


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Compress a series into a one-line block-character sparkline."""
    values = [float(v) for v in values]
    if not values:
        return ""
    if width <= 0:
        raise ValueError("width must be positive")
    step = max(len(values) // width, 1)
    sampled = values[::step][:width]
    lo, hi = min(sampled), max(sampled)
    span = (hi - lo) or 1.0
    return "".join(
        _BLOCKS[min(int((v - lo) / span * (len(_BLOCKS) - 1)), len(_BLOCKS) - 1)]
        for v in sampled
    )


def ascii_cdf(
    cdf: Cdf,
    width: int = 60,
    height: int = 12,
    log_x: bool = False,
    label: str = "",
) -> str:
    """Render an empirical CDF as an ASCII scatter of '*' marks."""
    if width < 10 or height < 4:
        raise ValueError("plot too small")
    xs = list(cdf.values)
    lo, hi = xs[0], xs[-1]
    if log_x:
        if lo <= 0:
            raise ValueError("log_x needs positive samples")
        lo, hi = math.log10(lo), math.log10(hi)
    span = (hi - lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    n = len(xs)
    for i, x in enumerate(xs):
        pos = math.log10(x) if log_x else x
        col = min(int((pos - lo) / span * (width - 1)), width - 1)
        frac = (i + 1) / n
        row = height - 1 - min(int(frac * (height - 1)), height - 1)
        grid[row][col] = "*"

    lines = []
    if label:
        lines.append(label)
    for r, row in enumerate(grid):
        frac = 1.0 - r / (height - 1)
        lines.append(f"{frac:4.0%} |" + "".join(row))
    x_lo = f"{cdf.values[0]:.3g}"
    x_hi = f"{cdf.values[-1]:.3g}"
    axis = "     +" + "-" * width
    scale = "      " + x_lo + " " * max(width - len(x_lo) - len(x_hi), 1) + x_hi
    if log_x:
        scale += "  (log x)"
    lines.append(axis)
    lines.append(scale)
    return "\n".join(lines)


def histogram(values: Sequence[float], width: int = 40, label: str = "") -> str:
    """A horizontal ASCII histogram."""
    values = [float(v) for v in values]
    if not values:
        return "(no samples)"
    bins = HISTOGRAM_BINS
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / span * bins), bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = [label] if label else []
    for b, count in enumerate(counts):
        left = lo + b * span / bins
        bar = "#" * int(count / peak * width) if peak else ""
        lines.append(f"{left:12.4g} | {bar} {count}")
    return "\n".join(lines)
