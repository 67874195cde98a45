"""Time-resolved metric snapshots: the columnar :class:`Timeline`.

A single end-of-run registry dump says *how much* happened; the roadmap's
serve-mode and fleet items need *when*.  :class:`TimelineSampler` snapshots
every instrument of a :class:`~repro.obs.metrics.MetricRegistry` at fixed
sim-time epochs into a :class:`Timeline` — one float column per counter or
gauge, a ``.count``/``.sum`` column pair per histogram — so a run's whole
trajectory costs ``epochs x instruments`` floats.

Timelines carry the same merge contract as the registry itself:

* **Epoch grids are absolute.**  Epochs are scheduled at
  ``start + k * period`` on the simulation clock (not relative to whenever
  the sampler was armed), so every shard of a sharded run samples the exact
  same instants and two shards' grids compare float-equal.
* **Columns add elementwise** (counters and gauges are extensive across
  shards, exactly as :meth:`~repro.obs.metrics.MetricRegistry.merge`
  treats them); a column present on one side only merges against zeros.
* **Fingerprints are bit-exact**: :meth:`Timeline.fingerprint` hashes
  ``repr`` of every float, so the sharded-replay invariant — same seeds,
  any worker count, identical digest — extends to the time dimension.

Instruments that appear mid-run (slow-path counters materialize on first
use) are backfilled with zeros for the epochs before their birth, which is
exactly the value the instrument would have reported had it existed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from .metrics import Gauge, Histogram, MetricRegistry

__all__ = ["Timeline", "TimelineSampler", "SAMPLE_PRIORITY"]

#: Epoch samples run after every same-instant simulation event (updates,
#: internal transitions, arrivals, ends), so an epoch reads the state the
#: instant *left behind* — and every shard agrees on what that is.
SAMPLE_PRIORITY = 10


def _percentile(ordered: List[float], p: float) -> float:
    """Value at quantile ``p`` of an ascending, non-empty list."""
    rank = p * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Timeline:
    """Columnar time series: one epoch axis, one float column per signal."""

    def __init__(self, period_s: float, start_s: float = 0.0) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.period_s = float(period_s)
        self.start_s = float(start_s)
        self.epochs: List[float] = []
        self.columns: Dict[str, List[float]] = {}

    # -- recording -----------------------------------------------------

    def record_epoch(self, t: float, values: Dict[str, float]) -> None:
        """Append one epoch; new columns are zero-backfilled, columns
        missing from ``values`` are padded with zero."""
        filled = len(self.epochs)
        self.epochs.append(float(t))
        for name, value in values.items():
            column = self.columns.get(name)
            if column is None:
                column = self.columns[name] = [0.0] * filled
            column.append(float(value))
        for column in self.columns.values():
            if len(column) <= filled:
                column.append(0.0)

    # -- views ---------------------------------------------------------

    def column(self, name: str) -> List[float]:
        try:
            return list(self.columns[name])
        except KeyError:
            raise KeyError(f"no timeline column {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self.columns)

    def __len__(self) -> int:
        return len(self.epochs)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-column min/mean/p50/p99/max/last over the sampled epochs
        (percentiles interpolate linearly between samples); empty before
        the first epoch, when there are no columns yet."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.columns):
            column = self.columns[name]
            ordered = sorted(column)
            out[name] = {
                "min": ordered[0],
                "mean": sum(column) / len(column),
                "p50": _percentile(ordered, 0.5),
                "p99": _percentile(ordered, 0.99),
                "max": ordered[-1],
                "last": column[-1],
            }
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "period_s": self.period_s,
            "start_s": self.start_s,
            "epochs": list(self.epochs),
            "columns": {name: list(col) for name, col in sorted(self.columns.items())},
            "fingerprint": self.fingerprint(),
        }

    # -- merge / fingerprint -------------------------------------------

    def merge(self, other: "Timeline") -> "Timeline":
        """Fold another shard's timeline into this one, in place.

        Requires float-identical epoch grids (shards sample the same
        absolute instants by construction; a mismatch is a wiring bug).
        """
        if self.period_s != other.period_s:
            raise ValueError(
                f"cannot merge timelines with periods "
                f"{self.period_s} and {other.period_s}"
            )
        if self.epochs != other.epochs:
            raise ValueError(
                f"epoch grids differ ({len(self.epochs)} vs "
                f"{len(other.epochs)} epochs); timelines must sample the "
                f"same absolute instants to merge"
            )
        n = len(self.epochs)
        for name, theirs in other.columns.items():
            ours = self.columns.get(name)
            if ours is None:
                self.columns[name] = list(theirs)
            else:
                self.columns[name] = [a + b for a, b in zip(ours, theirs)]
        for name, column in self.columns.items():
            if len(column) != n:  # pragma: no cover - defensive
                raise ValueError(f"column {name!r} length drifted")
        return self

    @classmethod
    def merged(cls, timelines: Iterable["Timeline"]) -> Optional["Timeline"]:
        """A fresh timeline holding the fold of ``timelines`` in order."""
        out: Optional[Timeline] = None
        for timeline in timelines:
            if out is None:
                out = cls(timeline.period_s, start_s=timeline.start_s)
                out.epochs = list(timeline.epochs)
                out.columns = {
                    name: list(col) for name, col in timeline.columns.items()
                }
            else:
                out.merge(timeline)
        return out

    def fingerprint(self) -> str:
        """Bit-exact digest of the epoch grid and every column."""
        hasher = hashlib.sha256()
        hasher.update(f"period={self.period_s!r}\n".encode())
        hasher.update(
            ("epochs=" + ",".join(repr(t) for t in self.epochs) + "\n").encode()
        )
        for name in sorted(self.columns):
            values = ",".join(repr(v) for v in self.columns[name])
            hasher.update(f"{name}={values}\n".encode())
        return hasher.hexdigest()


class TimelineSampler:
    """Snapshots one registry into a :class:`Timeline` at fixed epochs.

    Epochs are scheduled at *absolute* simulation times
    ``start_s + k * period_s`` for every ``k`` with the epoch inside the
    horizon — shard clocks start at different (negative, warm-up dependent)
    instants, and only an absolute grid keeps their timelines mergeable.

    ``prefix`` namespaces every column (``"silkroad."`` style), matching
    the prefixed registry fold the sharded fig16 replay performs, so a
    merged timeline's column names line up with the merged registry's
    instrument names.  Raising callback gauges are recorded as zero and
    counted in :attr:`callback_errors` — one bad probe must not poison the
    whole epoch (the export layer applies the same policy).
    """

    def __init__(
        self,
        registry: MetricRegistry,
        period_s: float,
        start_s: float = 0.0,
        prefix: str = "",
    ) -> None:
        self.registry = registry
        self.prefix = prefix
        self.timeline = Timeline(period_s, start_s=start_s)
        self.callback_errors = 0

    def attach(self, queue, horizon_s: float, priority: int = SAMPLE_PRIORITY) -> int:
        """Schedule every epoch up to ``horizon_s`` on ``queue`` (duck-typed
        as an :class:`~repro.netsim.events.EventQueue`); returns the number
        of epochs armed.  Call before the simulation starts."""
        timeline = self.timeline
        period = timeline.period_s
        count = 0
        t = timeline.start_s
        while t <= horizon_s:
            queue.schedule(t, self._make_sample(t), priority)
            count += 1
            t = timeline.start_s + (count * period)
        return count

    def _make_sample(self, t: float):
        return lambda: self.sample(t)

    def sample(self, t: float) -> None:
        """Record one epoch right now (samplers normally drive this via
        the queue; tests and serve loops may call it directly)."""
        values: Dict[str, float] = {}
        prefix = self.prefix
        for name, instrument in self.registry.instruments():
            column = f"{prefix}{name}"
            if isinstance(instrument, Histogram):
                values[f"{column}.count"] = float(instrument.count)
                values[f"{column}.sum"] = float(instrument.sum)
            elif isinstance(instrument, Gauge):
                try:
                    values[column] = float(instrument.value)
                except Exception:
                    self.callback_errors += 1
                    values[column] = 0.0
            else:
                values[column] = float(instrument.value)
        self.timeline.record_epoch(t, values)
