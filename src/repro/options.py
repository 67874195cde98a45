"""Shared runner options: replay-driver and observability knobs.

Every batch runner (``run_chaos``, ``run_fleet``,
``run_fleet_partitioned``, ``run_sharded``) accepts the same two axes of
configuration; the serving mode takes only the second (it has one replay
loop):

* :class:`DriverOptions` — which replay driver executes arrivals
  (chunked-arrival batched vs the scalar event-at-a-time oracle) and the
  chunk size.
* :class:`ObsOptions` — the optional time-resolved observability layer
  (flight recorder ring, timeline sampling period).

The dataclasses are the one spelling; a runner handed ``None`` uses the
defaults (``driver or DriverOptions()``, ``obs or ObsOptions()``).  Both
are frozen, hashable and picklable, and that is how they travel: a
:class:`~repro.experiments.parallel.ShardSpec` and a partition worker's
arguments carry the values themselves across the spawn boundary, and
:class:`~repro.obs.ObsHook` is the one place an ``ObsOptions`` turns into
a live recorder and sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Default flight-recorder ring capacity: a laptop-scale chaos run emits a
#: few thousand events, so the default keeps everything while staying a few
#: MiB worst case at full scale.  Defined here, where importing stays
#: dependency-free; ``repro.obs`` re-exports it as ``DEFAULT_RING_SIZE``.
DEFAULT_RECORD_CAPACITY = 65_536


@dataclass(frozen=True)
class DriverOptions:
    """Replay-driver selection, shared by every batch runner.

    ``batched`` picks the chunked-arrival driver (the default; bit-identical
    to the scalar oracle, see tests/asicsim/test_differential.py);
    ``batch_size`` caps the arrivals dispatched per chunk.
    """

    batched: bool = True
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ObsOptions:
    """Optional time-resolved observability, shared by every runner.

    ``record`` attaches a :class:`~repro.obs.FlightRecorder` (ring of
    ``record_capacity`` events, tagged ``record_source``);
    ``timeline_period_s`` arms a :class:`~repro.obs.TimelineSampler` on
    the run's registry.  ``record_source=None`` means "the runner's own
    default" ("chaos" for chaos runs, "fleet" for fleet runs, "serve" for
    the serving mode), so untouched defaults keep historical fingerprints.
    """

    record: bool = False
    record_capacity: int = DEFAULT_RECORD_CAPACITY
    record_source: Optional[str] = None
    timeline_period_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.record_capacity < 1:
            raise ValueError("record_capacity must be >= 1")
        if self.timeline_period_s is not None and self.timeline_period_s <= 0:
            raise ValueError("timeline_period_s must be positive")

    def resolved_source(self, default: str) -> str:
        """The recorder source tag, with the runner's default applied."""
        return self.record_source if self.record_source is not None else default


__all__ = [
    "DEFAULT_RECORD_CAPACITY",
    "DriverOptions",
    "ObsOptions",
]
