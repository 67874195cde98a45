"""Arming the time-resolved observability layer on one run.

Every runner — ``run_chaos``, ``run_fleet``, the shard bodies, the
partition replicas, the serving session, ``repro pcc`` — turns an
:class:`~repro.options.ObsOptions` into live instruments the same way:
:class:`ObsHook`.
"""

from __future__ import annotations

from typing import Optional

from .recorder import FlightRecorder
from .timeline import Timeline, TimelineSampler

__all__ = ["ObsHook"]


class ObsHook:
    """The ``replay(attach=...)`` hook that arms what ``obs`` asks for.

    Called as ``hook(sim, lb)`` after the simulator is built but before
    its first event (only ``sim.queue`` is used), it hands ``lb`` a
    default-capacity :class:`FlightRecorder` tagged ``source`` (unless
    ``obs.record_source`` overrides the tag) and schedules a
    :class:`TimelineSampler` over ``lb.metrics`` up to ``horizon_s``, its
    columns prefixed ``prefix``.  The LB is duck-typed: a recorder arms
    only on an ``attach_recorder`` method and a sampler only on a
    ``metrics`` registry (the Duet baseline has neither and still
    replays).  What was armed is left on :attr:`recorder` and
    :attr:`timeline`; both stay ``None`` when not requested.  One hook
    instruments one run.
    """

    def __init__(
        self, obs, source: str, horizon_s: float, prefix: str = ""
    ) -> None:
        self.obs = obs
        self.source = source
        self.horizon_s = horizon_s
        self.prefix = prefix
        self.recorder: Optional[FlightRecorder] = None
        self.timeline: Optional[Timeline] = None

    def __call__(self, sim, lb) -> None:
        obs = self.obs
        if obs.record and hasattr(lb, "attach_recorder"):
            self.recorder = FlightRecorder(source=obs.resolved_source(self.source))
            lb.attach_recorder(self.recorder)
        metrics = getattr(lb, "metrics", None)
        if obs.timeline_period_s is not None and metrics is not None:
            sampler = TimelineSampler(
                metrics, obs.timeline_period_s, prefix=self.prefix
            )
            sampler.attach(sim.queue, horizon_s=self.horizon_s)
            self.timeline = sampler.timeline
