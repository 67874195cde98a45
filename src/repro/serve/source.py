"""Streaming connection source for the serving mode.

:class:`StreamingFlowSource` is the incremental sibling of
:class:`~repro.netsim.arrivals.ArrivalGenerator`: instead of materializing
the whole horizon up front, it draws each advance window's arrivals on
demand through the same ``ArrivalGenerator.window`` — an exact Poisson
process per VIP, durations from the same lognormal models.  One generator
seeded once at session start makes the *sequence of windows* deterministic:
the same script (the same advance boundaries) replays the same connections,
which is what the serve determinism check pins.
"""

from __future__ import annotations

from typing import List, Sequence

from ..netsim.arrivals import ArrivalGenerator, VipWorkload
from ..netsim.flows import Connection


class StreamingFlowSource:
    """Per-window Poisson arrivals over a fixed set of VIP workloads.

    The VIP iteration order is the workload list order (fixed at
    construction), so draws consume the RNG stream identically across
    runs.  Draining or removing a DIP does not change a VIP's offered
    load — clients keep dialing the VIP; the switch just maps them onto
    the remaining pool.
    """

    def __init__(self, workloads: Sequence[VipWorkload], seed: int = 0) -> None:
        self._workloads = list(workloads)
        self._generator = ArrivalGenerator(seed)
        self.total_generated = 0

    @property
    def workloads(self) -> List[VipWorkload]:
        return list(self._workloads)

    def draw(self, t0: float, t1: float) -> List[Connection]:
        """All connections arriving in ``[t0, t1)``, sorted by start time."""
        # The window's records come base-hashed in one bulk byte pass.
        connections = self._generator.window(self._workloads, t0, t1).records()
        self.total_generated += len(connections)
        return connections
