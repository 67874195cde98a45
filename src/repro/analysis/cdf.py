"""Empirical CDFs and distribution summaries for the figure harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

@dataclass(frozen=True)
class Cdf:
    """An empirical CDF over a sample."""

    values: Tuple[float, ...]

    @classmethod
    def of(cls, samples: Iterable[float]) -> "Cdf":
        return cls(values=tuple(sorted(float(s) for s in samples)))

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("CDF needs at least one sample")

    def fraction_at_most(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self.values, x, side="right")) / len(self.values)

    def fraction_above(self, x: float) -> float:
        """P(X > x) — the 'Y% of clusters have more than X' reading."""
        return 1.0 - self.fraction_at_most(x)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        index = min(int(q * len(self.values)), len(self.values) - 1)
        return self.values[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def __len__(self) -> int:
        return len(self.values)


def percent_above(samples: Sequence[float], threshold: float) -> float:
    """Percent of samples exceeding a threshold."""
    if not samples:
        return 0.0
    return 100.0 * sum(1 for s in samples if s > threshold) / len(samples)
