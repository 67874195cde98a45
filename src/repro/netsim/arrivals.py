"""Connection arrival processes.

New connections towards a VIP are modelled as a Poisson process with a
configurable per-minute rate; the paper's PoP trace has an average of
18.7 K new connections per minute per VIP (§3.2) and a cluster-level peak of
2.77 M new connections per minute per ToR (§6).  Figure 8 shows per-VIP
rates spanning 1 K to >50 M per minute, so rates here are free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

from .flows import Connection, DurationModel, HADOOP
from .packet import TupleFactory, VirtualIP


@dataclass(frozen=True)
class VipWorkload:
    """Traffic description for one VIP."""

    vip: VirtualIP
    new_conns_per_min: float
    duration_model: DurationModel = HADOOP
    rate_bps: float = 19.6e6 / 18.7e3 * 60  # per-connection share of 19.6 Mb/s

    def arrivals_per_second(self) -> float:
        return self.new_conns_per_min / 60.0


_BY_START = attrgetter("start")


class ArrivalGenerator:
    """Generates the full connection list for a set of VIP workloads.

    Connections are materialized up-front (sorted by arrival time), which is
    both faster and simpler than interleaved generation for the flow-level
    experiments, and guarantees the same workload across the systems being
    compared (SilkRoad, Duet, SLB) in one experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._tuples = TupleFactory()
        self._next_id = 0

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def window(
        self, workloads: Sequence[VipWorkload], t0: float, t1: float
    ) -> List[Connection]:
        """All connections arriving in ``[t0, t1)``, sorted by start time.

        VIPs draw from the one RNG in list order, so the same sequence of
        windows over the same workloads yields the same connections.
        """
        if t1 <= t0:
            raise ValueError("window must have positive span")
        connections: List[Connection] = []
        for workload in workloads:
            rate = workload.arrivals_per_second()
            if rate <= 0:
                continue
            # Draw the count then order-statistics the arrival times: exact
            # Poisson process, vectorized.
            count = int(self._rng.poisson(rate * (t1 - t0)))
            if count == 0:
                continue
            times = self._rng.uniform(t0, t1, size=count)
            times.sort()
            durations = workload.duration_model.sample(self._rng, size=count)
            first_id = self._next_id
            self._next_id = first_id + count
            vip = workload.vip
            # One C-driven pass per VIP: the record's fields as columns.
            connections.extend(
                map(
                    Connection,
                    range(first_id, first_id + count),
                    self._tuples.take(vip, count),
                    repeat(vip),
                    times.tolist(),
                    durations.tolist(),
                    repeat(workload.rate_bps),
                )
            )
        connections.sort(key=_BY_START)
        return connections

    def generate(
        self,
        workloads: List[VipWorkload],
        horizon_s: float,
        warmup_s: float = 0.0,
    ) -> List[Connection]:
        """Generate all connections arriving in ``[-warmup, horizon)``.

        A warm-up period lets experiments start with established connections
        already resident (as a real switch would), matching the paper's
        replay methodology.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        return self.window(workloads, -warmup_s, horizon_s)


def uniform_vip_workloads(
    vips: List[VirtualIP],
    total_new_conns_per_min: float,
    duration_model: DurationModel = HADOOP,
    rate_bps_per_conn: Optional[float] = None,
) -> List[VipWorkload]:
    """Split an aggregate arrival rate evenly across VIPs."""
    if not vips:
        return []
    per_vip = total_new_conns_per_min / len(vips)
    kwargs = {}
    if rate_bps_per_conn is not None:
        kwargs["rate_bps"] = rate_bps_per_conn
    return [
        VipWorkload(
            vip=vip,
            new_conns_per_min=per_vip,
            duration_model=duration_model,
            **kwargs,
        )
        for vip in vips
    ]
