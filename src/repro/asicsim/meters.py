"""Two-rate three-color meters (RFC 4115), as provided by switching ASICs.

SilkRoad attaches one meter per VIP for performance isolation: a VIP under a
DDoS attack or flash crowd is marked and throttled in hardware instead of
degrading neighbouring VIPs the way a shared SLB server would (§5.2 measures
<1 % average marking error at 10 Gbps; the paper notes 40 K meter instances
consume ~1 % of ASIC SRAM).

This module implements the RFC 4115 differentiated-services marker: a
committed rate (CIR) with burst CBS and an excess rate (EIR) with burst EBS,
maintained as two token buckets updated lazily from timestamps, exactly like
the hardware's per-meter state (two counters + last-update time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..obs.metrics import MetricRegistry, Scope


class Color(enum.Enum):
    """Marking colors: GREEN conforms to CIR, YELLOW to EIR, RED exceeds."""

    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


@dataclass
class MeterConfig:
    """Rates in bits/second, bursts in bytes."""

    cir_bps: float
    eir_bps: float
    cbs_bytes: int
    ebs_bytes: int

    def __post_init__(self) -> None:
        if self.cir_bps < 0 or self.eir_bps < 0:
            raise ValueError("rates must be non-negative")
        if self.cbs_bytes <= 0 or self.ebs_bytes < 0:
            raise ValueError("CBS must be positive and EBS non-negative")


class TrTcmMeter:
    """An RFC 4115 two-rate three-color marker (color-blind mode).

    ``mark(size, now)`` consumes tokens and returns the packet color; the
    token buckets refill continuously at CIR/EIR.

    Timestamps may arrive *out of order*: fault injection (and, in real
    deployments, delayed slow-path notifications) can reorder meter
    updates, so an equal-or-earlier ``now`` must not crash the run.  The
    meter clamps the negative elapsed time to zero — no tokens refill, the
    packet is still marked against the current buckets — and counts the
    occurrence in ``time_skew_events`` (exported as
    ``meter_time_skew_total`` when a metrics scope is wired in).
    """

    def __init__(self, config: MeterConfig, skew_counter=None) -> None:
        self.config = config
        self._tc = float(config.cbs_bytes)  # committed bucket (bytes)
        self._te = float(config.ebs_bytes)  # excess bucket (bytes)
        self._last = 0.0
        self.marked = {Color.GREEN: 0, Color.YELLOW: 0, Color.RED: 0}
        self.marked_bytes = {Color.GREEN: 0, Color.YELLOW: 0, Color.RED: 0}
        #: updates whose timestamp was earlier than the meter clock.
        self.time_skew_events = 0
        self._skew_counter = skew_counter

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed < 0.0:
            # Reordered update: hold the clock, refill nothing.
            self.time_skew_events += 1
            if self._skew_counter is not None:
                self._skew_counter.inc()
            return
        self._last = now
        self._tc = min(
            self.config.cbs_bytes, self._tc + elapsed * self.config.cir_bps / 8.0
        )
        self._te = min(
            self.config.ebs_bytes, self._te + elapsed * self.config.eir_bps / 8.0
        )

    def mark(self, packet_bytes: int, now: float) -> Color:
        """Mark one packet of ``packet_bytes`` arriving at time ``now``."""
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        self._refill(now)
        if self._tc - packet_bytes >= 0:
            self._tc -= packet_bytes
            color = Color.GREEN
        elif self._te - packet_bytes >= 0:
            self._te -= packet_bytes
            color = Color.YELLOW
        else:
            color = Color.RED
        self.marked[color] += 1
        self.marked_bytes[color] += packet_bytes
        return color


class MeterBank:
    """A bank of per-VIP meters, as the ASIC's meter table.

    The SRAM footprint model follows the paper: 40 K meters consume about
    1 % of a 50-100 MB ASIC's SRAM, i.e. roughly 16 bytes of state per meter
    (two buckets + timestamp + config).

    The bank counts into the ``metrics`` scope it is handed (a private
    registry's when omitted); ``time_skew_events`` is a view of that counter.
    """

    BYTES_PER_METER = 16

    def __init__(self, metrics: Scope = None) -> None:
        self._meters: dict = {}
        if metrics is None:
            metrics = MetricRegistry().scope("")
        # One shared skew counter for the whole bank: skew is a property of
        # the update stream reaching the bank, not of one VIP's meter.
        self._skew_counter = metrics.counter(
            "meter_time_skew_total",
            help="meter updates whose timestamp ran backwards (clamped)",
        )

    time_skew_events = property(lambda self: int(self._skew_counter.value))

    def install(self, vip, config: MeterConfig) -> TrTcmMeter:
        meter = TrTcmMeter(config, skew_counter=self._skew_counter)
        self._meters[vip] = meter
        return meter

    def remove(self, vip) -> None:
        self._meters.pop(vip, None)

    def get(self, vip) -> TrTcmMeter:
        return self._meters[vip]

    def __contains__(self, vip) -> bool:
        return vip in self._meters

    def __len__(self) -> int:
        return len(self._meters)

    def mark(self, vip, packet_bytes: int, now: float) -> Color:
        """Mark a packet against its VIP's meter; unmetered VIPs pass GREEN."""
        meter = self._meters.get(vip)
        if meter is None:
            return Color.GREEN
        return meter.mark(packet_bytes, now)

    @property
    def sram_bytes(self) -> int:
        return len(self._meters) * self.BYTES_PER_METER
