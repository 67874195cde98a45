"""Run the real runners on a chosen replay driver, for the differential tests.

The runners replay on the default (chunked-arrival) driver and take no
driver choice; the one place a driver is chosen is
``PccWorkload.replay(batched=, batch_size=)``.  Inside
``with oracle_driver(): run_chaos(**kw)`` every ``PccWorkload.replay``
call gets the given driver, so the test compares two runs of the real
``run_chaos`` / ``run_fleet`` that differ only in the driver.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from repro.experiments.common import PccWorkload

__all__ = ["oracle_driver"]


@contextmanager
def oracle_driver(batched: bool = False, batch_size: int = 256):
    """Route every ``PccWorkload.replay`` in the block through the given
    driver (by default the scalar oracle); fail if none was reached."""
    replay = PccWorkload.replay
    calls = []

    @functools.wraps(replay)
    def chosen(self, *args, **kwargs):
        calls.append(None)
        return replay(self, *args, batched=batched, batch_size=batch_size, **kwargs)

    PccWorkload.replay = chosen
    try:
        yield
    finally:
        PccWorkload.replay = replay
    assert calls, "no replay went through PccWorkload.replay"
