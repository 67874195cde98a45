"""Deterministic fault plans, for one switch and for a fleet.

A :class:`FaultPlan` is a frozen, seed-derived schedule of fault events to
inject into a running simulation.  One :class:`FaultKind` covers both
scopes: :data:`SWITCH_KINDS` degrade one switch's slow path (switch-CPU
crashes and stalls, windows of failing PCI-E ConnTable writes, lost or
delayed learning-filter notifications) and :data:`FLEET_KINDS` degrade a
deployment (whole-switch crashes, control-plane partitions, flapping,
lost heartbeat probes, delayed detection, VIP reassignment).  Plans are
*data* — generating one performs no injection — so the same plan can be
replayed against different configurations, printed, or embedded in a
regression test.

Determinism is the whole point: :meth:`FaultPlan.generate` drives a private
``random.Random(seed)`` through one declared draw table, :data:`DRAWS`, so
the same seed always yields the same schedule, and two simulation runs with
the same workload seed and fault seed must produce identical metrics (the
chaos tests assert this bit-for-bit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence, Tuple


class FaultKind(Enum):
    """The failure modes the slow path and the fleet controller defend
    against; the first five hit one switch, the rest a fleet."""

    #: CPU process dies; queued and in-flight jobs lost; restarts after
    #: ``duration_s``.
    CPU_CRASH = "cpu_crash"
    #: CPU freezes for ``duration_s`` (GC pause, PCI-E contention); nothing
    #: is lost but every completion slips.
    CPU_STALL = "cpu_stall"
    #: For ``duration_s`` after the event, each ConnTable write fails with
    #: ``probability`` (exercises the ack/retry/backoff path).
    INSTALL_FAIL_WINDOW = "install_fail_window"
    #: The next ``count`` learning-filter notifications are lost before
    #: reaching the CPU (their connections re-learn).
    NOTIFICATION_LOSS = "notification_loss"
    #: The next ``count`` learning-filter batches are delivered ``delay_s``
    #: late.
    BATCH_DELAY = "batch_delay"
    #: switch ``switch`` silently dies; reboots (empty tables) after
    #: ``duration_s``.
    SWITCH_CRASH = "switch_crash"
    #: control plane severed for ``duration_s``: probes and updates stop
    #: reaching the switch while its data plane keeps forwarding.
    SWITCH_PARTITION = "switch_partition"
    #: ``cycles`` rapid crash/reboot cycles of ``duration_s`` each.
    SWITCH_FLAP = "switch_flap"
    #: the next ``count`` heartbeat probes to the switch are lost in
    #: transit (exercises false-positive detection).
    HEARTBEAT_LOSS = "heartbeat_loss"
    #: the controller stalls for ``duration_s`` (leader election, overload)
    #: — failures during the stall stay undetected.
    DETECTION_DELAY = "detection_delay"
    #: operator drains VIP ``vip_rank`` (a rank into the fleet's announce
    #: order) onto switch ``target`` (3-step reassignment).
    VIP_REASSIGN = "vip_reassign"


#: The kinds a :class:`~repro.core.silkroad.SilkRoadSwitch` takes.
SWITCH_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.CPU_CRASH,
    FaultKind.CPU_STALL,
    FaultKind.INSTALL_FAIL_WINDOW,
    FaultKind.NOTIFICATION_LOSS,
    FaultKind.BATCH_DELAY,
)
#: The kinds a :class:`~repro.deploy.fleet.FleetSilkRoad` takes.
FLEET_KINDS: Tuple[FaultKind, ...] = tuple(
    kind for kind in FaultKind if kind not in SWITCH_KINDS
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  Which fields matter depends on ``kind``."""

    time: float
    kind: FaultKind
    #: restart delay / stall, fail-window, partition or flap-cycle length.
    duration_s: float = 0.0
    #: per-write failure probability inside an install-fail window.
    probability: float = 1.0
    #: notifications or heartbeat probes affected.
    count: int = 1
    #: lateness of delayed batches.
    delay_s: float = 0.0
    #: the switch index a fleet fault hits (crash/partition/flap/loss).
    switch: int = 0
    #: crash/reboot cycles of a flap.
    cycles: int = 1
    #: reassignment target switch index.
    target: int = 0
    #: reassignment VIP, as a rank into the fleet's announce order.
    vip_rank: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        for name in ("duration_s", "delay_s", "switch", "target", "vip_rank"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("count", "cycles"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


#: A drawn field's range ``(lo, hi)``: uniform for a float field, both ends
#: inclusive for an int field.
Range = Tuple[float, float]

#: Stands for the range ``(0, num_switches - 1)`` of a switch index.
ANY_SWITCH = "any switch"

#: Fields drawn with ``uniform``; every other field is an int (``randint``).
_FLOAT_FIELDS = frozenset(("duration_s", "probability", "delay_s"))

#: For each kind, the fields :meth:`FaultPlan.generate` draws after the
#: event's time and kind, in RNG order, each with its default range.  Every
#: fleet kind draws a switch index first; a kind that hits no one switch
#: discards it (field ``None``), so the draw order is the same for all.
DRAWS: Dict[FaultKind, Tuple[Tuple[Optional[str], object], ...]] = {
    FaultKind.CPU_CRASH: (("duration_s", (5e-3, 5e-2)),),
    FaultKind.CPU_STALL: (("duration_s", (1e-3, 1e-2)),),
    FaultKind.INSTALL_FAIL_WINDOW: (
        ("duration_s", (1e-3, 1e-2)),
        ("probability", (0.2, 0.9)),
    ),
    FaultKind.NOTIFICATION_LOSS: (("count", (1, 3)),),
    FaultKind.BATCH_DELAY: (("count", (1, 3)), ("delay_s", (1e-3, 5e-3))),
    FaultKind.SWITCH_CRASH: (("switch", ANY_SWITCH), ("duration_s", (1.0, 4.0))),
    FaultKind.SWITCH_PARTITION: (("switch", ANY_SWITCH), ("duration_s", (1.0, 3.0))),
    FaultKind.SWITCH_FLAP: (
        ("switch", ANY_SWITCH),
        ("duration_s", (0.2, 0.6)),
        ("cycles", (2, 4)),
    ),
    FaultKind.HEARTBEAT_LOSS: (("switch", ANY_SWITCH), ("count", (1, 4))),
    FaultKind.DETECTION_DELAY: ((None, ANY_SWITCH), ("duration_s", (0.5, 2.0))),
    FaultKind.VIP_REASSIGN: (
        (None, ANY_SWITCH),
        ("vip_rank", (0, 63)),
        ("target", ANY_SWITCH),
    ),
}


@dataclass(frozen=True)
class FaultPlan:
    """A frozen schedule of fault events, sorted by time."""

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kinds(self) -> Tuple[FaultKind, ...]:
        return tuple(e.kind for e in self.events)

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        faults_per_min: float = 6.0,
        kinds: Sequence[FaultKind] = SWITCH_KINDS,
        num_switches: int = 1,
        ranges: Optional[Mapping[Tuple[FaultKind, str], Range]] = None,
    ) -> "FaultPlan":
        """Draw a deterministic Poisson-ish schedule from ``seed``.

        Event count is ``round(faults_per_min * horizon_s / 60)`` (at least
        one for a positive rate); times are uniform over ``(0, horizon_s)``;
        each event's fields are drawn as :data:`DRAWS` declares, a switch
        index from ``range(num_switches)``.  ``ranges`` replaces the default
        range of a ``(kind, field)``.  Same seed, same arguments ->
        identical plan, always.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if num_switches <= 0:
            raise ValueError("num_switches must be positive")
        if faults_per_min < 0:
            raise ValueError("faults_per_min must be non-negative")
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("kinds must be non-empty")
        ranges = ranges or {}
        unknown = set(ranges).difference(
            (kind, name) for kind, draws in DRAWS.items() for name, _ in draws
        )
        if unknown:
            raise ValueError(f"no such drawn field: {unknown}")
        rng = random.Random(seed)
        n = int(round(faults_per_min * horizon_s / 60.0))
        if faults_per_min > 0:
            n = max(n, 1)
        events = []
        for _ in range(n):
            time = rng.uniform(0.0, horizon_s)
            kind = rng.choice(kinds)
            fields = {}
            for name, default in DRAWS[kind]:
                span = ranges.get((kind, name), default)
                lo, hi = (0, num_switches - 1) if span is ANY_SWITCH else span
                draw = rng.uniform if name in _FLOAT_FIELDS else rng.randint
                value = draw(lo, hi)
                if name is not None:
                    fields[name] = value
            events.append(FaultEvent(time=time, kind=kind, **fields))
        return cls(events=tuple(events), seed=seed)
