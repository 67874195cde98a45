"""Serving-mode wallclock pacing.

The simulation's :class:`~repro.netsim.events.EventQueue` is the single
source of truth for "now".  By default time moves only when the operator
(or a script) asks for it, via ``ServeSession.advance(dt)``: between
advances the queue is quiescent, so a serial sequence of API calls is a
total order of deterministic state transitions and two runs of the same
script are bit-identical (asserted by ``tests/serve/test_script.py`` and
the CI serve smoke step).

:class:`WallclockPacer` is the other way to move it: an asyncio task
advances the session by real elapsed time every :data:`TICK_S`.  Useful
for interactive poking; makes no determinism promise (the tick boundaries
depend on scheduling).
"""

from __future__ import annotations

import asyncio
import time as _time
from typing import Callable, Optional

#: Real seconds between two paced advances.
TICK_S = 0.2
#: Simulated seconds per real second.
RATE = 1.0


class WallclockPacer:
    """Background task pacing a session against real time.

    Calls ``advance(elapsed)`` every :data:`TICK_S` of real time with the
    real elapsed seconds since the previous tick (scaled by :data:`RATE`).
    Start with :meth:`start` inside a running event loop; :meth:`stop`
    cancels the task and waits for it to unwind.
    """

    def __init__(self, advance: Callable[[float], object]) -> None:
        self._advance = advance
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("pacer already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        last = _time.monotonic()
        while True:
            await asyncio.sleep(TICK_S)
            now = _time.monotonic()
            elapsed = (now - last) * RATE
            last = now
            if elapsed > 0:
                self._advance(elapsed)
