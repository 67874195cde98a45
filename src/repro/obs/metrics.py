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
  semantics) plus optional :class:`P2Quantile` streaming estimators,
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
— counters and stored gauges add, histograms combine bucket-by-bucket, and
P² quantile estimators merge by count-weighted marker interpolation.  Both
sides of a merge must therefore be picklable; callback gauges serialize as
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
    "P2Quantile",
    "Scope",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_S",
    "get_default_registry",
]

#: Generic count-style buckets (cuckoo moves, batch sizes, backlogs).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0, 4096.0,
)

#: Log-spaced latency buckets, 10 µs .. 10 s.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0,
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

    def reset(self) -> None:
        self.value = 0.0

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

    def reset(self) -> None:
        # Callback gauges keep their source of truth; stored gauges zero.
        if self._fn is None:
            self._value = 0.0

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


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    Tracks one quantile in O(1) memory without storing observations —
    exactly what an always-on simulator instrument needs for p99s over
    millions of events.  Estimates are exact until five observations have
    arrived, then piecewise-parabolic.
    """

    __slots__ = ("p", "_initial", "_q", "_n", "_np", "_dn", "count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        self.p = p
        self._initial: List[float] = []
        self._q: List[float] = []
        self._n: List[float] = []
        self._np: List[float] = []
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def observe(self, x: float) -> None:
        self.count += 1
        if self._q:
            self._update(x)
            return
        self._initial.append(x)
        if len(self._initial) == 5:
            self._initial.sort()
            self._q = list(self._initial)
            self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
            p = self.p
            self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]

    def _update(self, x: float) -> None:
        q, n = self._q, self._n
        if x == q[0] and x == q[4]:
            # Degenerate-marker fast path: every marker already sits at x
            # (constant streams — e.g. zero queue delay — hit this on nearly
            # every observation).  Marker heights cannot move: the parabolic
            # candidate equals q[i] and fails the strict-inequality guard,
            # and the linear fallback adds step * 0 / dn.  Only the position
            # bookkeeping advances, exactly as the general path would.
            np_, dn = self._np, self._dn
            n[4] += 1.0
            np_[1] += dn[1]
            np_[2] += dn[2]
            np_[3] += dn[3]
            np_[4] += 1.0
            for i in (1, 2, 3):
                d = np_[i] - n[i]
                if d >= 1.0 and n[i + 1] - n[i] > 1.0:
                    n[i] += 1.0
                elif d <= -1.0 and n[i - 1] - n[i] < -1.0:
                    n[i] -= 1.0
            return
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_, dn = self._np, self._dn
        np_[1] += dn[1]
        np_[2] += dn[2]
        np_[3] += dn[3]
        np_[4] += 1.0
        # Adjust interior markers towards their desired positions.
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate of the tracked quantile."""
        if self._q:
            return self._q[2]
        if not self._initial:
            raise ValueError("no observations")
        ordered = sorted(self._initial)
        rank = self.p * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    def merge_from(self, other: "P2Quantile") -> None:
        """Fold another estimator of the *same* quantile into this one.

        P² keeps five markers, not the observations, so an exact merge is
        impossible; shards of one seeded workload are statistically
        exchangeable slices, for which count-weighting the corresponding
        marker heights (and adding marker positions) is the standard
        approximation.  Sides still in their exact first-five phase replay
        their raw observations, so small shards merge losslessly.
        """
        if self.p != other.p:
            raise ValueError(
                f"cannot merge p={other.p} estimator into p={self.p}"
            )
        if other.count == 0:
            return
        if not other._q:
            # Other is still exact: replay its raw observations.
            for x in other._initial:
                self.observe(x)
            return
        if not self._q:
            # Adopt other's converged marker state, then replay our own
            # exact observations on top of it.
            pending = list(self._initial)
            self._initial = []
            self._q = list(other._q)
            self._n = list(other._n)
            self._np = list(other._np)
            self.count = other.count
            for x in pending:
                self.observe(x)
            return
        ours, theirs = self.count, other.count
        total = ours + theirs
        self._q = [
            (a * ours + b * theirs) / total
            for a, b in zip(self._q, other._q)
        ]
        self._n = [a + b for a, b in zip(self._n, other._n)]
        self._np = [a + b for a, b in zip(self._np, other._np)]
        self.count = total

    def reset(self) -> None:
        self._initial.clear()
        self._q = []
        self._n = []
        self._np = []
        self.count = 0


class Histogram:
    """Fixed-bucket histogram with optional streaming quantiles.

    Buckets follow Prometheus cumulative-``le`` semantics: an observation
    lands in the first bucket whose upper bound is >= the value, and
    ``+Inf`` catches the remainder.  ``quantiles`` attaches
    :class:`P2Quantile` estimators (pay ~constant extra work per observe);
    without them :meth:`percentile` interpolates inside the bucket CDF.
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "sum", "count",
        "min", "max", "_estimators", "_est_tuple",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        quantiles: Sequence[float] = (),
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
        self._estimators: Dict[float, P2Quantile] = {
            float(p): P2Quantile(p) for p in quantiles
        }
        self._est_tuple = tuple(self._estimators.values())

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._est_tuple:
            for estimator in self._est_tuple:
                estimator.observe(value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Quantile estimate: P² if tracked, else bucket interpolation."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        estimator = self._estimators.get(p)
        if estimator is not None and estimator.count:
            return estimator.value()
        target = p * self.count
        cumulative = 0
        lower = self.min
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            upper = self.bounds[i] if i < len(self.bounds) else self.max
            upper = min(upper, self.max)
            if cumulative + bucket_count >= target:
                frac = (target - cumulative) / bucket_count
                return lower + (upper - lower) * frac
            cumulative += bucket_count
            lower = upper
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
        Bucket counts, sum and count add exactly; min/max combine; P²
        estimators merge approximately (see :meth:`P2Quantile.merge_from`).
        Quantiles tracked by only one side stay exact on that side.
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
        for p, theirs in other._estimators.items():
            ours = self._estimators.get(p)
            if ours is None:
                self._estimators[p] = estimator = P2Quantile(p)
                estimator.merge_from(theirs)
            else:
                ours.merge_from(theirs)
        self._est_tuple = tuple(self._estimators.values())

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        for estimator in self._estimators.values():
            estimator.reset()

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
        quantiles: Sequence[float] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, buckets=buckets, help=help, quantiles=quantiles
        )

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

    def reset(self) -> None:
        """Zero every instrument, keeping registrations and identities.

        Bound references held by instrumented components stay valid — a
        counter captured before ``reset()`` keeps counting into the same
        (now zeroed) instrument afterwards.
        """
        for instrument in self._instruments.values():
            instrument.reset()

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
                # path detaches callback gauges and clones P2 state.
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
        fingerprints — the chaos tests assert exactly that.  Includes
        per-bucket histogram counts (not just count/sum/mean), using
        ``repr`` of floats so the digest is bit-exact.
        """
        hasher = hashlib.sha256()
        for name, instrument in self.instruments():
            if isinstance(instrument, Histogram):
                parts = [repr(c) for c in instrument.bucket_counts]
                parts.append(repr(instrument.sum))
                parts.append(repr(instrument.count))
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
        quantiles: Sequence[float] = (),
    ) -> Histogram:
        return self.registry.histogram(
            self._name(name), buckets=buckets, help=help, quantiles=quantiles
        )

    def scope(self, prefix: str) -> "Scope":
        return Scope(self.registry, self._name(prefix))


_DEFAULT_REGISTRY = MetricRegistry()


def get_default_registry() -> MetricRegistry:
    """The process-wide registry (library users may prefer their own)."""
    return _DEFAULT_REGISTRY
