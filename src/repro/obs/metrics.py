"""Process-wide metrics registry: counters, gauges and histograms.

SilkRoad's evaluation lives on per-component quantities — ConnTable
occupancy and cuckoo-move counts (§5.1), learning-filter drain latency and
switch-CPU backlog (§6.2), TransitTable hit/false-positive rates — so every
simulated component carries always-on instruments.  The primitives here are
deliberately cheap (an increment is one attribute add) so they can stay
enabled in the simulator hot path:

* :class:`Counter` — monotonically increasing total,
* :class:`Gauge` — point-in-time value, optionally computed by a callback
  so the cost is paid at sample/export time rather than per event,
* :class:`Histogram` — fixed cumulative buckets (Prometheus ``le``
  semantics); percentiles are read from the bucket CDF,
* :class:`MetricRegistry` — the namespace that owns them, with
  :meth:`MetricRegistry.scope` prefix views for per-component wiring.

Instruments are get-or-create: asking a registry twice for the same name
returns the same object, so components may re-wire (e.g. a switch re-bound
to a new event queue) without losing or double-registering state.

**One store per count.**  An instrument is the count itself, not a mirror
of one: a component always counts into a :class:`Scope` (the one it is
handed, or ``MetricRegistry().scope("")`` of its own when built bare) and
exposes a count it wants read as a read-only property returning
``int(counter.value)`` — no plain-``int`` twin, no ``is not None`` guard.

Registries are also **mergeable**: the sharded replay engine
(:mod:`repro.experiments.parallel`) runs one registry per worker process
and folds them into a single fleet view with :meth:`MetricRegistry.merge`
— counters and stored gauges add and histograms combine bucket-by-bucket.
Every instrument merges *exactly*: a merged histogram is the histogram of
the union of the shards' observations, so a fleet-wide percentile is the
percentile of the fleet's stream, not an average of per-shard estimates.
Both sides of a merge must be picklable; callback gauges serialize as
their sampled value (the callback cannot cross a process boundary).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Scope",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_S",
]

#: Generic count-style buckets (cuckoo moves, batch sizes, backlogs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0, 4096.0,
)

#: Latency buckets: a ``0.0`` bound, so a delay of exactly zero reads as
#: exactly zero, then ten log-spaced bounds per decade (each 10^0.1 ≈ 1.26x
#: the last, rounded to three digits) from 10 µs to 100 s.  Fine enough that
#: :meth:`Histogram.percentile` reads p50 and p99 of exponential and
#: log-normal latencies within 5 % (tests/obs/test_metrics.py), and always
#: within the one bucket the answer falls in.
LATENCY_BUCKETS_S: Tuple[float, ...] = (0.0,) + tuple(
    float(f"{10 ** (k / 10 - 5):.3g}") for k in range(71)
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        """Fold another shard's total into this one (totals add)."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value, set directly or computed by a callback."""

    __slots__ = ("name", "help", "_value", "_fn")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the gauge lazily; cost is paid at read time only."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def merge_from(self, other: "Gauge") -> None:
        """Fold another shard's gauge into this one.

        Gauges add: the instruments this registry gauges (occupancies,
        backlogs, per-shard durations) are extensive quantities, so the
        fleet value is the sum over shards.  A callback gauge on the
        receiving side is materialized first — the merged registry is a
        snapshot, no longer bound to live components.
        """
        merged = self.value + other.value
        self._fn = None
        self._value = merged

    def __getstate__(self):
        # Callback gauges cannot cross a process boundary; pickle the
        # sampled value instead (the sharded replay workers rely on this).
        return {"name": self.name, "help": self.help, "value": self.value}

    def __setstate__(self, state) -> None:
        self.name = state["name"]
        self.help = state["help"]
        self._value = float(state["value"])
        self._fn = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram.

    Buckets follow Prometheus cumulative-``le`` semantics: an observation
    lands in the first bucket whose upper bound is >= the value, and
    ``+Inf`` catches the remainder.  :meth:`percentile` interpolates inside
    the bucket CDF, so its error is bounded by the width of one bucket and
    everything it reads (``bucket_counts``, ``count``, ``min``, ``max``)
    merges exactly.
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "sum", "count", "min", "max",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.help = help
        self.bounds: List[float] = bounds  # finite upper bounds; +Inf implied
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Quantile estimate: linear interpolation inside the bucket the
        ``p``-th observation falls in, its edges clamped to ``min``/``max``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        bounds = self.bounds
        target = p * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = max(bounds[i - 1], self.min) if i else self.min
                upper = min(bounds[i], self.max) if i < len(bounds) else self.max
                frac = (target - cumulative) / bucket_count
                return lower + (upper - lower) * frac
            cumulative += bucket_count
        return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def merge_from(self, other: "Histogram") -> None:
        """Fold another shard's histogram into this one.

        Bucket layouts must match (both sides come from the same
        instrumentation code, so a mismatch is a wiring bug, not data).
        Bucket counts, sum and count add and min/max combine, all exactly:
        the result is the histogram of the union of both sides'
        observations, so every :meth:`percentile` of it is too.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        self.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, count={self.count})"


class MetricRegistry:
    """Owns every instrument of one process (or one simulated switch).

    Names are dotted paths (``conn_table.lookups_total``); the dots become
    underscores in the Prometheus rendering.  Instrument creation is
    get-or-create and type-checked, so independent components can share a
    namespace safely.
    """

    def __init__(self, namespace: str = "repro", labels: Optional[Dict[str, str]] = None):
        self.namespace = namespace
        self.labels: Dict[str, str] = dict(labels or {})
        self._instruments: Dict[str, object] = {}

    # -- creation ------------------------------------------------------

    def _get_or_create(self, cls, name: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(Histogram, name, buckets=buckets, help=help)

    def scope(self, prefix: str) -> "Scope":
        """A view that prefixes every instrument name with ``prefix.``."""
        return Scope(self, prefix)

    # -- access --------------------------------------------------------

    def get(self, name: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            raise KeyError(f"no metric registered under {name!r}")
        return instrument

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def instruments(self) -> Iterable[Tuple[str, object]]:
        for name in sorted(self._instruments):
            yield name, self._instruments[name]

    def merge(self, other: "MetricRegistry", prefix: str = "") -> "MetricRegistry":
        """Fold another registry into this one, in place; returns ``self``.

        Instruments are matched by name: counters and gauges add,
        histograms combine bucket-by-bucket (see the ``merge_from``
        methods), and instruments present only in ``other`` are copied in
        as detached snapshots.  Merging is associative, so the sharded
        replay engine folds worker registries in shard order and the
        result — and its :meth:`fingerprint` — is independent of which
        worker finished first.  A name registered with different
        instrument types on the two sides raises ``TypeError``.

        ``prefix`` folds every instrument in under ``<prefix>.<name>``:
        how one registry holds several switches (fig16's systems, a
        fleet's instances) whose instrument names would otherwise collide.
        """
        for name, theirs in other.instruments():
            if prefix:
                name = f"{prefix}.{name}"
            ours = self._instruments.get(name)
            if ours is None:
                # Register a zeroed twin, then fold; copying via the merge
                # path detaches callback gauges.
                if isinstance(theirs, Histogram):
                    ours = self.histogram(name, buckets=theirs.bounds, help=theirs.help)
                elif isinstance(theirs, Gauge):
                    ours = self.gauge(name, help=theirs.help)
                else:
                    ours = self.counter(name, help=theirs.help)
            if type(ours) is not type(theirs):
                raise TypeError(
                    f"metric {name!r} is a {type(ours).__name__} here but a "
                    f"{type(theirs).__name__} in the registry being merged"
                )
            ours.merge_from(theirs)
        return self

    @classmethod
    def merged(
        cls,
        registries: Iterable["MetricRegistry"],
        namespace: str = "repro",
        labels: Optional[Dict[str, str]] = None,
    ) -> "MetricRegistry":
        """A fresh registry holding the fold of ``registries`` in order."""
        out = cls(namespace=namespace, labels=labels)
        for registry in registries:
            out.merge(registry)
        return out

    @staticmethod
    def _read(instrument) -> float:
        """An instrument's value, with a raising callback gauge read as
        NaN — exporters and fingerprints must survive one bad probe (the
        export layer separately accounts the error)."""
        try:
            return float(instrument.value)
        except Exception:
            return float("nan")

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view (histograms contribute count/sum/mean)."""
        out: Dict[str, float] = {}
        for name, instrument in self.instruments():
            if isinstance(instrument, Histogram):
                out[f"{name}.count"] = float(instrument.count)
                out[f"{name}.sum"] = instrument.sum
                if instrument.count:
                    out[f"{name}.mean"] = instrument.mean()
            else:
                out[name] = self._read(instrument)
        return out

    def fingerprint(self) -> str:
        """Deterministic digest of every instrument's exact state.

        Two runs of the same seeded simulation must produce identical
        fingerprints — the chaos tests assert exactly that.  A histogram
        contributes its per-bucket counts, sum, count and (once it has an
        observation) min and max — everything :meth:`Histogram.percentile`
        reads — using ``repr`` of floats so the digest is bit-exact: equal
        fingerprints imply equal exported percentiles.
        """
        hasher = hashlib.sha256()
        for name, instrument in self.instruments():
            if isinstance(instrument, Histogram):
                parts = [repr(c) for c in instrument.bucket_counts]
                parts.append(repr(instrument.sum))
                parts.append(repr(instrument.count))
                if instrument.count:
                    parts += (repr(instrument.min), repr(instrument.max))
                hasher.update(f"{name}={','.join(parts)}\n".encode())
            else:
                hasher.update(f"{name}={self._read(instrument)!r}\n".encode())
        return hasher.hexdigest()


class Scope:
    """Prefix view of a registry, handed to one component."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str, help: str = "") -> Counter:
        return self.registry.counter(self._name(name), help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.registry.gauge(self._name(name), help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self.registry.histogram(self._name(name), buckets=buckets, help=help)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self.registry, self._name(prefix))
