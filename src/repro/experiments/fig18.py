"""Figure 18: TransitTable size vs PCC protection.

Sweeps the TransitTable Bloom filter from 8 bytes to 1 KB under three
learning-filter timeouts (0.5 / 1 / 5 ms) at 10 updates per minute.  A
tiny filter saturates during step 1; connections arriving in step 2 then
falsely match it, adopt the *old* pool version, and lose that protection
when the filter clears at t_finish — the violation mechanism the paper
measures.

Paper anchors: 8 bytes already prevents violations at <=1 ms timeouts;
at 5 ms the 8-byte filter breaks ~20 connections in an hour while 256
bytes breaks none.

:func:`cells` is the one definition of a grid cell; :func:`run` replays
them in this process and ``run_sharded("fig18")`` replays the same cells
across workers, so both produce the same per-cell numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

from ..analysis import format_table
from ..core import SilkRoadSwitch
from .common import PccWorkload, build_workload, silkroad_factory

DEFAULT_SIZES = (8, 64, 256)
DEFAULT_TIMEOUTS = (0.5e-3, 5e-3)
UPDATES_PER_MIN = 30.0


@dataclass
class Fig18Point:
    transit_bytes: int
    timeout_s: float
    violations: int
    transit_fp_adopted: int


def grid(
    sizes: Sequence[int] = DEFAULT_SIZES,
    timeouts: Sequence[float] = DEFAULT_TIMEOUTS,
) -> List[Tuple[int, float]]:
    """The ``(transit_bytes, timeout_s)`` cells in table order: timeouts
    outer, sizes inner."""
    return [(int(size), float(timeout)) for timeout in timeouts for size in sizes]


def cells(
    pairs: Sequence[Tuple[int, float]],
    seed: int = 18,
    updates_per_min: float = UPDATES_PER_MIN,
    scale: float = 1.0,
    horizon_s: float = 60.0,
    warmup_s: float = 10.0,
    arrival_scale: float = 16.0,
    num_vips: int = 2,
    insertion_rate_per_s: float = 50_000.0,
    conn_table_capacity: int = 600_000,
) -> Iterator[Tuple[int, float, PccWorkload, Callable[[], SilkRoadSwitch]]]:
    """``(transit_bytes, timeout_s, workload, switch factory)`` for each of
    ``pairs``: the one definition of a Figure 18 cell, and the only place
    its knobs and their defaults are declared.

    Every cell replays the same trace — the workload depends on ``seed``
    and the knobs, never on the cell — so a cell's result does not depend
    on which other cells ran beside it.  The per-VIP arrival rate is
    boosted (few VIPs, ``arrival_scale``) so the number of connections
    marked during a step-1 window — arrival rate times the learning-filter
    timeout — matches what the paper's 2.77 M new connections per minute
    would produce; that product is what saturates a tiny filter.
    """
    workload = build_workload(
        updates_per_min=updates_per_min,
        scale=scale,
        seed=seed,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        arrival_scale=arrival_scale,
        num_vips=num_vips,
    )
    for size, timeout in pairs:
        factory = silkroad_factory(
            use_transit_table=True,
            transit_table_bytes=size,
            learning_timeout_s=timeout,
            insertion_rate_per_s=insertion_rate_per_s,
            conn_table_capacity=conn_table_capacity,
            name=f"silkroad-{size}B",
        )
        yield size, timeout, workload, factory


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    timeouts: Sequence[float] = DEFAULT_TIMEOUTS,
    seed: int = 18,
    **knobs: object,
) -> List[Fig18Point]:
    """Replay every cell of the ``sizes`` x ``timeouts`` grid in this
    process; ``knobs`` go to :func:`cells` as given."""
    points: List[Fig18Point] = []
    for size, timeout, workload, factory in cells(grid(sizes, timeouts), seed, **knobs):
        report, _conns, lb = workload.replay(factory)
        points.append(
            Fig18Point(
                transit_bytes=size,
                timeout_s=timeout,
                violations=report.pcc_violations,
                transit_fp_adopted=int(lb.transit_fp_adopted),
            )
        )
    return points


def main(scale: float = 1.0, seed: int = 18) -> str:
    points = run(scale=scale, seed=seed)
    rows = [
        (
            p.transit_bytes,
            f"{p.timeout_s * 1e3:.1f}",
            p.violations,
            p.transit_fp_adopted,
        )
        for p in points
    ]
    table = format_table(
        ("TransitTable bytes", "filter timeout (ms)", "broken conns", "bloom FPs adopted"),
        rows,
        title="Figure 18: TransitTable size vs PCC (10 upd/min)",
    )
    anchors = (
        "paper anchors: 8 B suffices at <=1 ms timeout; 8 B @ 5 ms breaks "
        "~20 conns/hour; 256 B breaks none anywhere"
    )
    return table + "\n" + anchors


if __name__ == "__main__":
    print(main())
