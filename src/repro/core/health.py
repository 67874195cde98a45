"""DIP health monitoring on the switch (§7, "Handle DIP failures").

Each SilkRoad switch health-checks its DIPs with BFD-style probes the ASIC
can offload (the paper budgets ~800 Kb/s for 10 K DIPs at a 10-second
interval).  :class:`HealthMonitor` drives a :class:`BfdProber` off the
simulation event queue: every interval it probes each monitored DIP
against a liveness oracle (fault injection in tests/simulations) and, on
detection, removes the DIP from its pool through the switch's normal
update path — so the removal gets the full 3-step PCC treatment like any
operator update.

Recovered DIPs are re-added after ``recovery_checks`` consecutive good
probes, completing the remove/re-add cycle that version reuse optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import PRIO_INTERNAL
from ..netsim.updates import RootCause, UpdateEvent, UpdateKind

#: A liveness oracle: returns True if the DIP answers its probe now.
LivenessOracle = Callable[[DirectIP, float], bool]


def always_alive(_dip: DirectIP, _now: float) -> bool:
    return True


def health_check_bandwidth_bps(
    num_dips: int, interval_s: float = 10.0, probe_bytes: int = 100
) -> float:
    """Bandwidth one switch spends probing its DIPs.

    The paper's example: 10 K DIPs / 10 s / 100 B -> ~800 Kb/s.
    """
    if num_dips < 0:
        raise ValueError("num_dips must be non-negative")
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    if probe_bytes <= 0:
        raise ValueError("probe size must be positive")
    return num_dips / interval_s * probe_bytes * 8.0


@dataclass
class BfdProber:
    """Per-switch BFD-offload health checker.

    Tracks consecutive probe misses per DIP; ``detect_multiplier`` misses
    declare the DIP down (RFC 5880 semantics).
    """

    interval_s: float = 10.0
    detect_multiplier: int = 3
    _misses: Dict[DirectIP, int] = field(default_factory=dict)
    _down: Set[DirectIP] = field(default_factory=set)

    def observe(self, dip: DirectIP, responded: bool) -> Optional[DirectIP]:
        """Record one probe result; returns the DIP if it just went down."""
        if responded:
            self._misses[dip] = 0
            self._down.discard(dip)
            return None
        misses = self._misses.get(dip, 0) + 1
        self._misses[dip] = misses
        if misses >= self.detect_multiplier and dip not in self._down:
            self._down.add(dip)
            return dip
        return None

    def is_down(self, dip: DirectIP) -> bool:
        return dip in self._down

    def detection_time_s(self) -> float:
        """Worst-case detection latency."""
        return self.interval_s * self.detect_multiplier


@dataclass
class _DipState:
    vips: Set[VirtualIP] = field(default_factory=set)
    removed: bool = False
    good_streak: int = 0


class HealthMonitor:
    """Probes a switch's DIPs and converts failures into pool updates."""

    def __init__(
        self,
        switch,
        oracle: LivenessOracle = always_alive,
        interval_s: float = 10.0,
        detect_multiplier: int = 3,
        recovery_checks: int = 2,
        probe_bytes: int = 100,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        if recovery_checks <= 0:
            raise ValueError("recovery_checks must be positive")
        self.switch = switch
        self.oracle = oracle
        self.interval_s = interval_s
        self.recovery_checks = recovery_checks
        self.probe_bytes = probe_bytes
        self.prober = BfdProber(interval_s=interval_s, detect_multiplier=detect_multiplier)
        self._dips: Dict[DirectIP, _DipState] = {}
        self._running = False
        self.probes_sent = 0
        self.failures_detected = 0
        self.recoveries = 0

    # ------------------------------------------------------------------

    def watch_vip(self, vip: VirtualIP) -> None:
        """Monitor every DIP currently pooled for ``vip``."""
        pools = self.switch.dip_pools
        version = pools.current_version(vip)
        for dip in pools.pool(vip, version).slots:
            self._dips.setdefault(dip, _DipState()).vips.add(vip)

    def watch_all(self) -> None:
        for vip in self.switch.vip_table.vips():
            self.watch_vip(vip)

    def start(self) -> None:
        """Begin the periodic probe cycle on the switch's event queue."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return

        def fire() -> None:
            self._probe_cycle()
            self._schedule_next()

        self.switch.queue.schedule_in(self.interval_s, fire, PRIO_INTERNAL)

    # ------------------------------------------------------------------

    def _probe_cycle(self) -> None:
        now = self.switch.queue.now
        for dip, state in list(self._dips.items()):
            self.probes_sent += 1
            alive = self.oracle(dip, now)
            went_down = self.prober.observe(dip, responded=alive)
            if went_down is not None and not state.removed:
                self._remove(dip, state, now)
            elif alive and state.removed:
                state.good_streak += 1
                if state.good_streak >= self.recovery_checks:
                    self._readd(dip, state, now)
            elif not alive:
                state.good_streak = 0

    def _remove(self, dip: DirectIP, state: _DipState, now: float) -> None:
        self.failures_detected += 1
        state.removed = True
        state.good_streak = 0
        for vip in state.vips:
            pools = self.switch.dip_pools
            current = pools.pool(vip, pools.current_version(vip))
            if dip in current and len(current) > 1:
                self.switch.apply_update(
                    UpdateEvent(now, vip, UpdateKind.REMOVE, dip, RootCause.FAILURE)
                )

    def _readd(self, dip: DirectIP, state: _DipState, now: float) -> None:
        self.recoveries += 1
        state.removed = False
        for vip in state.vips:
            pools = self.switch.dip_pools
            current = pools.pool(vip, pools.current_version(vip))
            if dip not in current:
                self.switch.apply_update(
                    UpdateEvent(now, vip, UpdateKind.ADD, dip, RootCause.FAILURE)
                )

    # ------------------------------------------------------------------

    @property
    def monitored_dips(self) -> int:
        return len(self._dips)

    def bandwidth_bps(self) -> float:
        """Probe bandwidth this monitor costs the switch (§7 arithmetic)."""
        return health_check_bandwidth_bps(
            self.monitored_dips, self.interval_s, self.probe_bytes
        )

    def detection_time_s(self) -> float:
        return self.prober.detection_time_s()
