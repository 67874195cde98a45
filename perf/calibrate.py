"""Machine-speed yardstick for the host-time metrics.

The reference box is a shared 2-core VM.  Its speed swings by tens of
percent from second to second and drifts by 10-25 % over minutes: the same
commit measured twice, minutes apart, differed by 30 % in plain wall-clock
connections/s (interquartile range over ten runs), more than any bound
worth having.  As ``benchmarks/smoke.py`` already does for CI, the
benchmark therefore times a fixed kernel of plain-Python work *that shares
no code with the program under test* and reports host time relative to
it, scaled to a reference speed::

    reported seconds = measured seconds * REFERENCE_CHUNK_S / mean chunk seconds

What makes this work where one calibration per run did not (spread 8 %)
is *where* the kernel runs: a ~1 ms chunk every 0.5 s of simulated time
**inside** each repetition (``workloads.Pace``), so program and yardstick
see the same machine at 10 ms granularity.  Ten runs under heavy
neighbour noise then agree within 2-3 % while their wall-clock numbers
spread 11-15 %.  The kernel is memory-bound on purpose (random lookups in
a ~10 MB dict of bytes keys, heap pushes and pops, small allocations):
that is what the simulator is bound by, and an arithmetic loop tracked the
box's slow phases only half as well.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List, Tuple

#: The kernel's chunk time on the reference box while it is quiet, fixed
#: for good: changing it (or the kernel) rescales every host-time number
#: ever recorded.
REFERENCE_CHUNK_S = 0.0009

_TABLE_KEYS = 50_000
_CHUNK_OPS = 600


class Kernel:
    """The fixed workload; :meth:`chunk` runs it once and returns seconds."""

    def __init__(self) -> None:
        keys = [
            (i * 2654435761 & 0xFFFFFFFF).to_bytes(4, "big") + b"\x00\x50\x06"
            for i in range(_TABLE_KEYS)
        ]
        random.Random(1).shuffle(keys)
        self._keys = keys
        self._table = {key: (i, key) for i, key in enumerate(keys)}
        self._offset = 0

    def chunk(self) -> float:
        keys, table, offset = self._keys, self._table, self._offset
        self._offset = offset + _CHUNK_OPS
        # The chunk allocates; a cyclic-GC pass it happens to trigger
        # would charge the yardstick for the program's live objects
        # (measured: 5x slower chunks right after a set-up).
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = 0
            heap: list = []
            push, pop = heapq.heappush, heapq.heappop
            for i in range(_CHUNK_OPS):
                key = keys[(offset + i * 7919) % _TABLE_KEYS]
                value = table[key]
                acc += value[0]
                push(heap, (value[0] % 997, i, [key, None, i]))
                if i & 1:
                    pop(heap)
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()


def at_reference_speed(seconds: float, cal: Tuple[float, int]) -> float:
    """``seconds`` of host time scaled by the yardstick sampled alongside
    it: ``cal`` is ``(total chunk seconds, chunks)``.  With no chunks (a
    traced run) the time comes back as measured."""
    cal_s, chunks = cal
    if not chunks:
        return seconds
    return seconds * REFERENCE_CHUNK_S * chunks / cal_s


def bracket(kernel: Kernel, chunks: int) -> Tuple[float, int]:
    """Run ``chunks`` chunks back to back; returns ``(seconds, chunks)``."""
    return sum(kernel.chunk() for _ in range(chunks)), chunks
