"""Aggregated statistics helpers for SilkRoad experiments.

Convenience reducers over :class:`~repro.netsim.simulator.SimulationReport`
objects and switch counters, shared by the experiment modules and the
examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..netsim.flows import Connection
from ..netsim.simulator import SimulationReport


@dataclass(frozen=True)
class PccSummary:
    """PCC outcome of one run, in the units the paper's figures use."""

    system: str
    updates_per_min: float
    measured_connections: int
    violations: int
    horizon_s: float

    @property
    def violation_fraction(self) -> float:
        if self.measured_connections == 0:
            return 0.0
        return self.violations / self.measured_connections

    @property
    def violations_per_minute(self) -> float:
        if self.horizon_s <= 0:
            return 0.0
        return self.violations / (self.horizon_s / 60.0)


def summarize(
    report: SimulationReport, updates_per_min: float = 0.0
) -> PccSummary:
    """Condense a simulation report into the paper's PCC metric."""
    return PccSummary(
        system=report.name,
        updates_per_min=updates_per_min,
        measured_connections=report.measured_connections,
        violations=report.pcc_violations,
        horizon_s=report.horizon_s,
    )


def violations_by_minute(connections: Sequence[Connection]) -> Dict[int, int]:
    """Count PCC-violated connections per minute of their violation.

    The minute is that of the first decision change.
    """
    buckets: Dict[int, int] = {}
    for conn in connections:
        if not conn.pcc_violated:
            continue
        # The violation happens at the first decision differing from the
        # initial one.
        first_dip = None
        when = None
        for t, dip in conn.decisions:
            if dip is None:
                continue
            if first_dip is None:
                first_dip = dip
            elif dip != first_dip:
                when = t
                break
        if when is None:
            continue
        buckets[int(when // 60)] = buckets.get(int(when // 60), 0) + 1
    return buckets


def active_connection_peak(
    connections: Sequence[Connection], horizon_s: float, step_s: float = 60.0
) -> int:
    """Peak simultaneous connection count sampled every ``step_s``.

    Each connection contributes +1 at its first sample index and -1 past
    its last, so one sweep over a difference array replaces rescanning
    every connection at every sample — O(conns + samples) instead of
    O(conns x samples).
    """
    if step_s <= 0:
        raise ValueError("step must be positive")
    if horizon_s < 0:
        return 0
    num_steps = int(horizon_s / step_s + 1e-9) + 1  # samples at i*step_s
    delta = [0] * (num_steps + 1)
    for conn in connections:
        # Active at sample i iff start <= i*step_s < end; the epsilon in
        # ceil() keeps boundary samples (start exactly on the grid) in.
        i0 = max(0, math.ceil(conn.start / step_s - 1e-12))
        i1 = min(num_steps, math.ceil(conn.end / step_s - 1e-12))
        if i0 >= i1:
            continue
        delta[i0] += 1
        delta[i1] -= 1
    peak = 0
    active = 0
    for change in delta[:num_steps]:
        active += change
        peak = max(peak, active)
    return peak
