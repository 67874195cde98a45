"""Shared runner options: the observability knobs.

Every runner (``run_chaos``, ``run_fleet``, ``run_fleet_partitioned``,
``run_sharded``, the serving mode) accepts one :class:`ObsOptions` — the
optional time-resolved observability layer (flight recorder, timeline
sampling period).  There is no replay-driver option: every runner replays
on the one default driver, and the scalar oracle is reached only through
``PccWorkload.replay(batched=False)`` (the differential tests).

The dataclass is the one spelling; a runner handed ``None`` uses the
defaults (``obs or ObsOptions()``).  It is frozen, hashable and
picklable, and that is how it travels: a
:class:`~repro.experiments.parallel.ShardSpec` and a partition worker's
arguments carry the value itself across the spawn boundary, and
:class:`~repro.obs.ObsHook` is the one place an ``ObsOptions`` turns into
a live recorder and sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Flight-recorder ring capacity of every runner's recorder: a laptop-scale
#: chaos run emits a few thousand events, so it keeps everything while
#: staying a few MiB worst case at full scale.  Defined here, where
#: importing stays dependency-free; ``repro.obs`` re-exports it as
#: ``DEFAULT_RING_SIZE``.
DEFAULT_RECORD_CAPACITY = 65_536


@dataclass(frozen=True)
class ObsOptions:
    """Optional time-resolved observability, shared by every runner.

    ``record`` attaches a :class:`~repro.obs.FlightRecorder` (ring of
    :data:`DEFAULT_RECORD_CAPACITY` events, tagged ``record_source``);
    ``timeline_period_s`` arms a :class:`~repro.obs.TimelineSampler` on
    the run's registry.  ``record_source=None`` means "the runner's own
    default" ("chaos" for chaos runs, "fleet" for fleet runs, "serve" for
    the serving mode), so untouched defaults keep historical fingerprints.
    """

    record: bool = False
    record_source: Optional[str] = None
    timeline_period_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeline_period_s is not None and self.timeline_period_s <= 0:
            raise ValueError("timeline_period_s must be positive")

    def resolved_source(self, default: str) -> str:
        """The recorder source tag, with the runner's default applied."""
        return self.record_source if self.record_source is not None else default


__all__ = [
    "DEFAULT_RECORD_CAPACITY",
    "ObsOptions",
]
