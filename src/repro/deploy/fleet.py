"""Fleet failure domain: health-checked failover with attributable PCC.

The one multi-switch deployment (§5.3) and the one model of §7's
switch-failure story: every switch announces its assigned VIPs and keeps
its *own* ConnTable, the fabric ECMP-splits each VIP's flows over its live
announcers with resilient hashing, and when a switch dies only the
connections pinned to an *older* pool version can break — the survivors
share the latest VIPTable, so latest-version flows re-hash identically.

Real fleets do not learn of a failure the instant it happens: a controller
discovers switch health through *heartbeat probes*, detection has latency,
and every flow hashed to a dead switch blackholes until suspicion crosses
the threshold.  That control plane is what this module builds.  The
zero-detection-latency oracle of the paper's §7 arithmetic is a *caller*,
not a mode: schedule :meth:`FleetSilkRoad.inject_switch_crash` and
:meth:`FleetSilkRoad.declare_down` at the same instant (see
:mod:`repro.experiments.switch_failure`).

* :class:`FleetController` probes every switch each
  :data:`HEARTBEAT_INTERVAL_S`; :data:`SUSPICION_THRESHOLD` consecutive
  misses declare the switch down (detection latency = interval ×
  threshold).
  Until then the fabric keeps hashing flows into the void.
* **Declare-down** removes the switch from every VIP's resilient-hash
  group and re-homes its connections to the survivors — re-hashed flows
  keep PCC iff they were on the latest pool version (§7 semantics), and
  every move is recorded with its cause.
* **Recovery / rejoin** boots a *fresh* switch instance that must re-sync
  its VIPTable from the fleet's current pools (state re-learn) before the
  controller re-admits it to ECMP after :data:`REJOIN_THRESHOLD` clean
  probes.
* **PCC-safe VIP reassignment** (:meth:`FleetSilkRoad.reassign_vip`)
  mirrors the 3-step ``pcc_update`` shape at fleet scope:
  re-announce on the target, drain the hash group after
  :data:`ANNOUNCE_DELAY_S`, then redirect the stragglers after
  :data:`DRAIN_WINDOW_S` — flows that arrived inside the window are the
  *mid-reassignment race* population.
* **Graceful degradation**: with a ``conn_budget`` (per-switch ConnTable
  allowance, same budget notion as :mod:`repro.deploy.assignment`), a
  failover that would overflow a survivor sheds whole VIPs, the
  earliest-announced first, instead of corrupting table state.

Every decision change a connection can experience is recorded, with its
cause, when the fleet causes it, so :func:`audit_fleet` attributes
**every** PCC violation and drop to exactly one cause of the one table,
:mod:`repro.obs.causes` — the bar is a zero-size unattributed bucket.
Every flow move — detection re-home, rejoin, reassignment redirect — goes
through one sweep, :meth:`FleetSilkRoad._move_flows`, and every
control-plane event through one emission, :meth:`FleetSilkRoad._emit`,
which feeds both the flight recorder and the replica-agreement journal.

Everything runs on the shared deterministic event queue; given equal
seeds, two fleet runs are bit-identical (the chaos CLI asserts equal
registry fingerprints across runs and worker counts).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence
from typing import Set, Tuple

from ..asicsim.batch import PacketBatch
from ..asicsim.hashing import mix64
from ..baselines.ecmp import ResilientHashTable
from ..core.config import SilkRoadConfig
from ..core.silkroad import SilkRoadSwitch
from ..core.verify import AuditReport, audit_switch
from ..netsim.events import EventQueue
from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer, PRIO_ARRIVAL, PRIO_INTERNAL
from ..netsim.updates import UpdateEvent, UpdateKind
from ..obs.events import (
    EventKind,
    FLEET_CRASH,
    FLEET_DECLARE_DOWN,
    FLEET_HEAL,
    FLEET_HEARTBEAT_LOSS,
    FLEET_PARTITION,
    FLEET_REASSIGN_ABORT,
    FLEET_REASSIGN_ANNOUNCE,
    FLEET_REASSIGN_DRAIN,
    FLEET_REASSIGN_REDIRECT,
    FLEET_REJOIN,
    FLEET_RESTART,
    FLEET_RESYNC,
    FLEET_SHED,
)
from ..obs.causes import BLACKHOLE, FLEET_CAUSES, RACE, REHASH, SHED, SWITCH_LOCAL
from ..obs.causes import AttributionRule, Outcome, Tally
from ..obs.metrics import MetricRegistry

#: The fleet's control-plane counters, declared once.  Each is a plain
#: ``int`` attribute of :class:`FleetSilkRoad`, incremented in place; this
#: tuple is what zeroes them, mirrors them as ``fleet.<name>`` callback
#: gauges, folds them into :meth:`FleetSilkRoad.epoch_digest` and keys
#: :meth:`FleetSilkRoad.report` — all in this order, so a counter added
#: here cannot be missing from the replica-agreement digest.  Unlike a
#: switch's counts they are plain ints, not registry counters: every
#: partition replica replays the whole control plane and needs the counts
#: for ``epoch_digest``, while only the primary replica registers
#: ``fleet.*`` instruments; and the benchmark reads :meth:`report` inside
#: a timed rep (``perf/workloads.py``).
_COUNTERS: Tuple[str, ...] = (
    "crashes",
    "restarts",
    "partitions",
    "heals",
    "detections",
    "false_detections",
    "rejoins",
    "resyncs",
    "handoffs",
    "blackholed_arrivals",
    "blackholed_existing",
    "unserved_arrivals",
    "shed_arrivals",
    "vips_shed",
    "shed_connections",
    "reassignments_started",
    "reassignments_completed",
    "reassignments_skipped",
    "reassignments_aborted",
    "updates_missed",
)


@dataclass(frozen=True)
class _SwitchId:
    """A hashable stand-in so the resilient table can ECMP over switches."""

    index: int

    # ResilientHashTable hashes str(member); give it a stable name.
    def __str__(self) -> str:
        return f"switch-{self.index}"


@dataclass(frozen=True)
class FleetPartition:
    """Which slice of the fleet this replica materializes.

    The partitioned runner gives every worker the *whole* deterministic
    control plane — heartbeats, declare-down, re-homes, reassignment steps
    and shedding are replicated computation over replicated state — but
    only the switches in ``owned`` simulate a data plane; the rest are
    :class:`_PhantomSwitch` stand-ins.  ``worker_id == 0`` is the primary:
    it alone materializes the fleet-scope gauges, the fleet recorder and
    the authoritative cause maps, so per-worker registries, timelines and
    recorders stay pairwise disjoint and merge to the same bits for every
    worker count.
    """

    owned: Tuple[int, ...]
    worker_id: int
    num_workers: int

    def __post_init__(self) -> None:
        if not self.owned:
            raise ValueError("a partition must own at least one switch")
        if not 0 <= self.worker_id < self.num_workers:
            raise ValueError("worker_id out of range")

    @property
    def primary(self) -> bool:
        return self.worker_id == 0


#: Seconds between controller probe rounds.
HEARTBEAT_INTERVAL_S = 0.25
#: Consecutive missed probes before a switch is declared down; a silent
#: crash blackholes for up to HEARTBEAT_INTERVAL_S x SUSPICION_THRESHOLD.
SUSPICION_THRESHOLD = 3
#: Consecutive clean probes before a recovered switch rejoins ECMP.
REJOIN_THRESHOLD = 2
#: Reassignment step 1→2 latency (announce propagation).
ANNOUNCE_DELAY_S = 0.05
#: Reassignment step 2→3 latency (drain window).
DRAIN_WINDOW_S = 0.5
#: Barrier period of the partitioned runner.  The only couplings that
#: carry one switch's state into another's are controller heartbeat rounds
#: (probe results → declare-down/rejoin), the reassignment announce step
#: and the drain window; their minimum bounds how far replicas could drift
#: apart before an exchanged digest would notice, so epochs never exceed it.
PARTITION_EPOCH_S = min(HEARTBEAT_INTERVAL_S, ANNOUNCE_DELAY_S, DRAIN_WINDOW_S)


def check_fleet_knobs(replication: Optional[int], conn_budget: Optional[int]) -> None:
    """Reject a :class:`FleetSilkRoad`'s ``replication`` / ``conn_budget``
    out of range; the partitioned runner asks before it spawns a replica."""
    if replication is not None and replication < 1:
        raise ValueError("replication must be >= 1")
    if conn_budget is not None and conn_budget < 1:
        raise ValueError("conn_budget must be >= 1")


def _digest64(text: str) -> int:
    """A 64-bit digest of ``text`` that, unlike ``hash``, is the same in
    every process whatever its hash seed."""
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _SwitchSlot:
    """One fleet position: the current switch instance plus health state."""

    __slots__ = (
        "switch",
        "generation",
        "dataplane_up",
        "partition_depth",
        "drop_probes",
        "synced",
        "in_ecmp",
        "missed",
        "ok_streak",
        "announced",
        "restart_handle",
    )

    def __init__(self, switch: SilkRoadSwitch) -> None:
        self.switch = switch
        self.generation = 0
        self.dataplane_up = True
        self.partition_depth = 0  # nested partitions stack
        self.drop_probes = 0  # probes the fault model will eat
        self.synced = True
        self.in_ecmp = True
        self.missed = 0
        self.ok_streak = 0
        self.announced: Set[VirtualIP] = set()  # membership only, never iterated
        self.restart_handle = None

    @property
    def reachable(self) -> bool:
        """Control-plane reachability (what a probe can observe)."""
        return self.dataplane_up and self.partition_depth == 0

    def serves(self, vip: VirtualIP) -> bool:
        """Can this slot's data plane forward for ``vip`` right now?

        A partitioned switch keeps forwarding (the partition severs the
        control plane: probes and updates); a crashed or freshly restarted
        instance that has not announced the VIP cannot.
        """
        return self.dataplane_up and vip in self.announced


class _PhantomSwitch:
    """Data-plane stand-in for a switch owned by another partition worker.

    The replicated control plane must interleave *identically* on every
    replica; the fleet itself advances the shared clock before each
    arrival, so the phantom simulates nothing and allocates nothing.
    ``resume_connection`` reports a miss; the fleet then calls
    ``on_connection_arrival`` (a no-op here) — neither branch touches
    fleet state, so owners and non-owners stay in lockstep.
    """

    __slots__ = ("name", "queue")

    materialized = False
    conn_table: Tuple[()] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: Optional[EventQueue] = None

    def bind(self, queue: EventQueue) -> None:
        self.queue = queue

    def attach_recorder(self, recorder) -> None:
        pass

    def announce_vip(self, vip, dips) -> None:
        pass

    def on_connection_arrival(self, conn: Connection) -> None:
        pass

    def on_connection_end(self, conn: Connection) -> None:
        pass

    def resume_connection(self, conn: Connection) -> bool:
        return False

    def apply_update(self, event: UpdateEvent, on_finished=None) -> None:
        pass

    def finalize(self) -> None:
        pass


class FleetController:
    """Heartbeat prober + membership policy for a :class:`FleetSilkRoad`."""

    def __init__(self, fleet: "FleetSilkRoad") -> None:
        self.fleet = fleet
        self._stalled_until = float("-inf")
        self.probes_sent = 0
        self.probes_missed = 0
        self.stalled_ticks = 0

    def start(self, queue: EventQueue) -> None:
        queue.schedule(queue.now + HEARTBEAT_INTERVAL_S, self._tick, PRIO_INTERNAL)

    def stall(self, duration_s: float) -> None:
        """Suspend detection (the DETECTION_DELAY fault): probes pause."""
        now = self.fleet.queue.now
        self._stalled_until = max(self._stalled_until, now + duration_s)

    def _tick(self) -> None:
        fleet = self.fleet
        queue = fleet.queue
        now = queue.now
        if now < self._stalled_until:
            self.stalled_ticks += 1
        else:
            for index, slot in enumerate(fleet._slots):
                self.probes_sent += 1
                up = slot.reachable
                if up and slot.drop_probes > 0:
                    slot.drop_probes -= 1
                    up = False  # the probe itself was lost
                if up:
                    slot.missed = 0
                    slot.ok_streak += 1
                    if slot.in_ecmp and not slot.synced:
                        # Reachable but stale: it missed updates while
                        # unreachable and must re-learn before serving.
                        fleet.declare_down(index, reason="stale")
                    elif not slot.in_ecmp and slot.ok_streak >= REJOIN_THRESHOLD:
                        fleet.rejoin(index)
                else:
                    slot.ok_streak = 0
                    slot.missed += 1
                    self.probes_missed += 1
                    if slot.in_ecmp and slot.missed >= SUSPICION_THRESHOLD:
                        fleet.declare_down(index, reason="unresponsive")
        queue.schedule(now + HEARTBEAT_INTERVAL_S, self._tick, PRIO_INTERNAL)


#: Slots of each per-VIP resilient hash group.
ECMP_SLOTS = 128


class FleetSilkRoad(LoadBalancer):
    """A fleet of SilkRoad switches under heartbeat-driven membership."""

    def __init__(
        self,
        num_switches: int = 4,
        config: SilkRoadConfig = SilkRoadConfig(),
        name: str = "fleet-silkroad",
        partition: Optional[FleetPartition] = None,
        replication: Optional[int] = None,
        conn_budget: Optional[int] = None,
    ) -> None:
        if num_switches <= 0:
            raise ValueError("need at least one switch")
        check_fleet_knobs(replication, conn_budget)
        self.name = name
        self.config = config
        #: switches announcing each VIP (None = every switch, the §5.3 default).
        self.replication = replication
        #: per-switch ConnTable allowance; None disables overflow shedding.
        self.conn_budget = conn_budget
        self.partition = partition
        if partition is None:
            self._owned = frozenset(range(num_switches))
            self._primary = True
        else:
            owned = frozenset(partition.owned)
            if not owned <= frozenset(range(num_switches)):
                raise ValueError("partition owns switches outside the fleet")
            self._owned = owned
            self._primary = partition.primary
        #: per-owned-switch flight recorders (partitioned runs only).
        self._slot_recorders: Dict[int, "FlightRecorder"] = {}  # noqa: F821
        # Replica-agreement journal: every emitted event and every hand-off
        # is folded in at the instant it happens; compared at epoch barriers.
        self._journal_hash = 0
        self._journal_count = 0
        #: keys parked on an aborted reassignment's dead target, so the
        #: detection re-home attributes them as reassignment races.
        self._aborted_races: Set[bytes] = set()
        self._slots: List[_SwitchSlot] = [
            _SwitchSlot(self._make_switch(i, 0)) for i in range(num_switches)
        ]
        self._ids = [_SwitchId(i) for i in range(num_switches)]
        self._retired: List[Tuple[int, int, SilkRoadSwitch]] = []
        # Per-VIP resilient hash group over the VIP's live announcers.
        self._tables: Dict[VirtualIP, ResilientHashTable] = {}
        # Every group is built with the same seed and ``ECMP_SLOTS``, so a
        # flow's slot does not depend on its VIP or on membership: this
        # group's members are never read, it only derives slots.
        self._slot_hash = ResilientHashTable(self._ids[:1], num_slots=ECMP_SLOTS)
        #: The arrivals of the window :meth:`prepare_batch` primed last and
        #: their ECMP slots, both reversed: each arrival pops its own off
        #: the end, in arrival order.
        self._window: Tuple[List[Connection], List[int]] = ([], [])
        # Which slots are supposed to announce each VIP (rejoin targets).
        self._assignment: Dict[VirtualIP, List[int]] = {}
        self._vip_order: List[VirtualIP] = []
        # The fleet's authoritative current pool per VIP, mirrored from the
        # update stream; resyncs announce from here.
        self._pools: Dict[VirtualIP, List[DirectIP]] = {}
        self._owner: Dict[bytes, int] = {}  # -1 = registered but unserved
        self._conns: Dict[bytes, Connection] = {}
        # Attribution maps, written at the instant the fleet causes the
        # decision change; membership-only, never iterated for events.
        self._move_cause: Dict[bytes, str] = {}
        self._drop_cause: Dict[bytes, str] = {}
        self._shed: Dict[VirtualIP, None] = {}  # insertion-ordered set
        #: in-flight reassignments: vip -> (t0, from_index, to_index)
        self._reassigning: Dict[VirtualIP, Tuple[float, int, int]] = {}
        self.controller = FleetController(self)
        self.recorder = None

        # Counters (mirrored into the registry as callback gauges).
        for counter in _COUNTERS:
            setattr(self, counter, 0)

        # Fleet-scope gauges live on the primary replica only; per-switch
        # gauges live on the owner.  Partitioned partial registries are
        # therefore pairwise disjoint and their merge is worker-count
        # invariant (a serial fleet is its own primary and owns everything).
        self.metrics = MetricRegistry(labels={"fleet": name})
        if self._primary:
            scope = self.metrics.scope("fleet")
            for counter in _COUNTERS:
                scope.gauge(counter).set_function(
                    lambda c=counter: float(getattr(self, c))
                )
            scope.gauge("switches_in_ecmp").set_function(
                lambda: float(sum(1 for s in self._slots if s.in_ecmp))
            )
            scope.gauge("switches_up").set_function(
                lambda: float(sum(1 for s in self._slots if s.dataplane_up))
            )
        for i in sorted(self._owned):
            sw_scope = self.metrics.scope(f"sw{i}")
            sw_scope.gauge("dataplane_up").set_function(
                lambda i=i: 1.0 if self._slots[i].dataplane_up else 0.0
            )
            sw_scope.gauge("in_ecmp").set_function(
                lambda i=i: 1.0 if self._slots[i].in_ecmp else 0.0
            )
            sw_scope.gauge("conn_entries").set_function(
                lambda i=i: float(len(self._slots[i].switch.conn_table))
            )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def announce_vip(self, vip: VirtualIP, dips: Sequence[DirectIP]) -> None:
        if vip in self._assignment:
            raise ValueError(f"VIP already announced: {vip}")
        n = len(self._slots)
        rank = len(self._vip_order)
        replication = self.replication
        width = n if replication is None else min(replication, n)
        indices = sorted({(rank + j) % n for j in range(width)})
        self._vip_order.append(vip)
        self._assignment[vip] = indices
        self._pools[vip] = list(dips)
        for index in indices:
            slot = self._slots[index]
            slot.switch.announce_vip(vip, dips)
            slot.announced.add(vip)
        self._tables[vip] = ResilientHashTable(
            [self._ids[i] for i in indices], num_slots=ECMP_SLOTS
        )

    def bind(self, queue: EventQueue) -> None:
        super().bind(queue)
        for slot in self._slots:
            slot.switch.bind(queue)
        self.controller.start(queue)

    def attach_recorder(self, recorder) -> None:
        self.recorder = recorder
        for slot in self._slots:
            slot.switch.attach_recorder(recorder)

    def attach_partition_recorders(self) -> None:
        """Partitioned recording: one default-capacity ring per owned
        switch (source ``sw<i>``) plus, on the primary replica only, a
        fleet ring.

        A :class:`~repro.obs.recorder.FlightRecorder` sequences events per
        ring, and the merged dump orders by ``(t, source, seq)`` — with
        every source produced by exactly one worker, the merge is
        invariant to the partition width.
        """
        from ..obs.recorder import FlightRecorder

        if self._primary:
            self.recorder = FlightRecorder(source="fleet")
        for i in sorted(self._owned):
            recorder = FlightRecorder(source=f"sw{i}")
            self._slot_recorders[i] = recorder
            self._slots[i].switch.attach_recorder(recorder)

    def partition_recorders(self) -> List:
        """Every ring this replica owns, fleet ring first."""
        fleet = [] if self.recorder is None else [self.recorder]
        return fleet + [self._slot_recorders[i] for i in sorted(self._slot_recorders)]

    def _make_switch(self, index: int, generation: int):
        suffix = f"-{index}" if generation == 0 else f"-{index}g{generation}"
        name = f"{self.name}{suffix}"
        if index in self._owned:
            return SilkRoadSwitch(self.config, name=name)
        return _PhantomSwitch(name)

    def _emit(self, kind: EventKind, *fields: object) -> None:
        """One fleet control-plane event: recorded when a recorder is
        attached, and folded into the replica-agreement journal.

        This is the only place either happens, so no event can reach the
        recorder and miss the divergence check.  The journal folds the
        kind, every field — an int at its full width, a str through
        :func:`_digest64` — and the clock.
        """
        if self.recorder is not None:
            self.recorder.record(self.queue.now, kind, None, *fields)
        folded = _digest64(f"{kind.category}.{kind.name}")
        for value in fields:
            if isinstance(value, str):
                value = _digest64(value)
            folded = mix64(value, folded)
        self._journal(folded, len(fields))

    def _journal(self, a: int, b: int) -> None:
        """Fold ``a``, ``b`` and the clock's hash into the agreement journal.

        Every replica derives the same control-plane decisions from
        replicated state; the journal is the running proof, compared at
        every epoch barrier.  An event passes its digest and field count
        (at most 5), a hand-off its key hash and packed owner pair (at
        least 1024), so the two kinds of entry never share inputs.
        """
        folded = mix64(a, self._journal_hash)
        self._journal_hash = mix64(b ^ hash(self.queue.now), folded)
        self._journal_count += 1

    def epoch_digest(self) -> Tuple[int, ...]:
        """Replica-agreement digest exchanged at epoch barriers.

        Covers the journal (every membership / fault / re-home /
        reassignment event with its arguments and timestamp) plus the
        sizes and counters of all replicated control-plane state; any
        divergence between partition replicas shows up here within one
        epoch of the event that caused it.
        """
        return (
            self._journal_count,
            self._journal_hash,
            len(self._conns),
            len(self._tables),
            len(self._shed),
            len(self._reassigning),
            *(getattr(self, counter) for counter in _COUNTERS),
            self.controller.probes_sent,
            self.controller.probes_missed,
        )

    # ------------------------------------------------------------------
    # LoadBalancer interface
    # ------------------------------------------------------------------

    def on_connection_arrival(self, conn: Connection) -> None:
        key = conn.key
        vip = conn.vip
        now = self.queue.now
        window_conns, window_slots = self._window
        if window_conns and window_conns[-1] is conn:
            window_conns.pop()
            slot_index = window_slots.pop()
        else:
            slot_index = None
        if vip in self._shed:
            # The VIP was shed for capacity: the fleet refuses the flow.
            self.shed_arrivals += 1
            conn.record_decision(now, None)
            self._drop_cause[key] = SHED
            return
        table = self._tables.get(vip)
        if table is None:
            # Every announcer is down: the VIP is withdrawn fleet-wide.
            self.unserved_arrivals += 1
            self._owner[key] = -1
            self._conns[key] = conn
            conn.record_decision(now, None)
            self._drop_cause.setdefault(key, BLACKHOLE)
            return
        if slot_index is None:  # not in a prepared window
            slot_index = table.slot_of(conn.key_hash)
        index = table.member_at(slot_index).index
        self._owner[key] = index
        self._conns[key] = conn
        slot = self._slots[index]
        if slot.serves(vip):
            slot.switch.on_connection_arrival(conn)
        else:
            # Crashed (or restarted and not yet resynced) but not yet
            # detected: the fabric still hashes here; packets blackhole.
            self.blackholed_arrivals += 1
            conn.record_decision(now, None)
            self._drop_cause.setdefault(key, BLACKHOLE)

    def prepare_batch(self, conns: Sequence[Connection]) -> None:
        """Columnar precomputation for an upcoming window of arrivals.

        Builds the window's :class:`PacketBatch` once (one bulk byte-hash
        pass), derives every arrival's ECMP slot in one pass (kept until
        the arrival pops it) and primes the ConnTable of each arrival's
        *currently predicted* owner.  Slot derivation is pure, and so is
        priming: if membership changes before the arrival (a declare-down,
        a restart's fresh instance), the arrival reads its slot's member
        then, and the real owner simply derives the profile on the scalar
        path.  Only profile-cache LRU order — unobservable — can differ,
        the same contract as :meth:`SilkRoadSwitch.prepare_batch`.
        """
        batch = PacketBatch.from_connections(conns)
        slots = self._slot_hash.slots_of(batch.base_hashes)
        self._prime_targets(zip(self._owners(conns, slots), conns))
        slots.reverse()
        self._window = (conns[::-1], slots)

    def _owners(
        self, conns: Sequence[Connection], slots: Optional[List[int]] = None
    ) -> List[Optional[int]]:
        """Where each flow hashes now: the switch at its ECMP slot in its
        VIP's group, ``None`` for a VIP with no group.  The slots are
        derived in one pass unless given."""
        if slots is None:
            slots = self._slot_hash.slots_of([conn.key_hash for conn in conns])
        tables = self._tables
        owners: List[Optional[int]] = []
        for conn, slot_index in zip(conns, slots):
            table = tables.get(conn.vip)
            owners.append(None if table is None else table.member_at(slot_index).index)
        return owners

    def _prime_targets(self, moves: Iterable[Tuple[Optional[int], Connection]]) -> None:
        """Warm each owned target's ConnTable with the ``(target, conn)``
        flows about to reach it, one :meth:`ConnTable.prime_profiles` call
        per target (a partition replica's phantoms hold no table)."""
        owned = self._owned
        windows: Dict[int, Tuple[List[bytes], List[int]]] = {}
        for target, conn in moves:
            if target not in owned:
                continue
            window = windows.get(target)
            if window is None:
                window = windows[target] = ([], [])
            window[0].append(conn.key)
            window[1].append(conn.key_hash)
        for index, (keys, key_hashes) in windows.items():
            self._slots[index].switch.conn_table.prime_profiles(keys, key_hashes)

    def on_connection_batch(self, conns: Sequence[Connection]) -> None:
        """A chunk of arrivals, each routed at its own timestamp.

        Heartbeats, faults and reassignment steps are heap events, so
        draining the queue up to each arrival first keeps membership
        changes ordered exactly as the scalar driver orders them.
        """
        queue = self.queue
        run_before = queue.run_until_before
        arrival = self.on_connection_arrival
        for conn in conns:
            run_before(conn.start, PRIO_ARRIVAL)
            queue.now = conn.start
            arrival(conn)

    def on_connection_end(self, conn: Connection) -> None:
        key = conn.key
        index = self._owner.pop(key, None)
        self._conns.pop(key, None)
        if index is None or index < 0:
            return
        slot = self._slots[index]
        if slot.dataplane_up:
            # May be a fresh instance that never saw the flow (no-op) or
            # the instance that ended it at quiesce time (idempotent).
            slot.switch.on_connection_end(conn)

    def apply_update(
        self,
        event: UpdateEvent,
        on_finished: Optional[Callable[[VirtualIP, object], None]] = None,
    ) -> None:
        """Apply a DIP-pool update to the membership mirror and hand it to
        every assigned switch that is reachable, synced and announcing.

        ``on_finished``, when given, is called as ``on_finished(vip,
        timings)`` once every switch the update was handed to has reached
        ``t_finish`` (``timings`` is the last switch's).  It never fires
        when no switch took the update (an unknown or shed VIP, a no-op
        change, every assigned switch down or stale), nor when a switch
        that took it dies before finishing.
        """
        vip = event.vip
        pool = self._pools.get(vip)
        if pool is None:
            return
        if event.kind is UpdateKind.REMOVE or event.kind is UpdateKind.DRAIN:
            if event.dip not in pool:
                return
            pool.remove(event.dip)
        elif event.kind is UpdateKind.WEIGHT:
            # Membership is unchanged; the weighted slot layout is a
            # per-switch pool-version property.  (A later re-announce —
            # e.g. a reassignment's step 1 — rebuilds the pool from this
            # membership mirror and therefore resets weights to 1.)
            if event.dip not in pool:
                return
        else:
            if event.dip in pool:
                return
            pool.append(event.dip)
        if vip in self._shed:
            return
        takers = []
        for index in self._assignment[vip]:
            slot = self._slots[index]
            if slot.reachable and slot.synced and vip in slot.announced:
                takers.append(slot.switch)
            else:
                # Unreachable or already stale: it missed this update and
                # must re-learn before it may serve again.
                slot.synced = False
                self.updates_missed += 1
        callback = on_finished
        if on_finished is not None:
            unfinished = len(takers)

            def callback(vip: VirtualIP, timings) -> None:
                nonlocal unfinished
                unfinished -= 1
                if unfinished == 0:
                    on_finished(vip, timings)

        for switch in takers:
            switch.apply_update(event, on_finished=callback)

    def finalize(self) -> None:
        for slot in self._slots:
            if slot.dataplane_up and slot.announced:
                slot.switch.finalize()

    # ------------------------------------------------------------------
    # Introspection (control API / serving mode)
    # ------------------------------------------------------------------

    def current_dips(self, vip: VirtualIP) -> Tuple[DirectIP, ...]:
        """The fleet's membership mirror for ``vip`` (announce order)."""
        pool = self._pools.get(vip)
        if pool is None:
            raise KeyError(f"VIP not announced: {vip}")
        return tuple(pool)

    def live_connections_on(self, vip: VirtualIP, dip: DirectIP) -> int:
        """Live connections mapped to ``(vip, dip)`` across the fleet."""
        return sum(
            slot.switch.live_connections_on(vip, dip)
            for slot in self._slots
            if slot.dataplane_up
        )

    def assigned_switches(self, vip: VirtualIP) -> List[int]:
        """Indices of the switches assigned to announce ``vip``."""
        indices = self._assignment.get(vip)
        if indices is None:
            raise KeyError(f"VIP not announced: {vip}")
        return list(indices)

    def switch_status(self) -> List[Dict[str, object]]:
        """Per-switch control-plane view (the serve API's fleet state)."""
        return [
            {
                "index": i,
                "dataplane_up": slot.dataplane_up,
                "in_ecmp": slot.in_ecmp,
                "synced": slot.synced,
                "announced_vips": len(slot.announced),
            }
            for i, slot in enumerate(self._slots)
        ]

    # ------------------------------------------------------------------
    # Fault surface (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------

    def inject_switch_crash(
        self, index: int, restart_after_s: Optional[float] = None
    ) -> None:
        """The switch silently dies; optionally reboots after a delay.

        Existing flows blackhole immediately (their state died with the
        switch); the fabric keeps hashing to the slot until the controller
        declares it down.
        """
        slot = self._slots[index]
        now = self.queue.now
        if slot.dataplane_up:
            self.crashes += 1
            quiesced = self._live(owner=index)
            for conn in quiesced:
                # Silence the dead instance's state for this flow first so
                # its in-flight slow-path events stop recording decisions,
                # then mark the packet-level blackhole on the connection.
                slot.switch.on_connection_end(conn)
                conn.record_decision(now, None)
                self._drop_cause.setdefault(conn.key, BLACKHOLE)
            self.blackholed_existing += len(quiesced)
            slot.dataplane_up = False
            slot.synced = False
            self._emit(FLEET_CRASH, index, len(quiesced))
        if slot.restart_handle is not None:
            slot.restart_handle.cancel()
            slot.restart_handle = None
        if restart_after_s is not None:
            slot.restart_handle = self.queue.schedule(
                now + restart_after_s,
                lambda: self._restart_switch(index),
                PRIO_INTERNAL,
            )

    def _restart_switch(self, index: int) -> None:
        slot = self._slots[index]
        if slot.dataplane_up:
            return
        self._fresh_instance(index)
        slot.dataplane_up = True
        slot.synced = False  # must re-learn the VIPTable before serving
        slot.restart_handle = None
        self.restarts += 1
        self._emit(FLEET_RESTART, index, slot.generation)

    def _fresh_instance(self, index: int) -> None:
        """Replace the slot's instance with an empty one (state re-learn)."""
        slot = self._slots[index]
        self._retired.append((index, slot.generation, slot.switch))
        slot.generation += 1
        fresh = self._make_switch(index, slot.generation)
        if hasattr(self, "queue"):
            fresh.bind(self.queue)
        recorder = self._slot_recorders.get(index, self.recorder)
        if recorder is not None:
            fresh.attach_recorder(recorder)
        slot.switch = fresh
        slot.announced = set()

    def inject_partition(
        self, index: int, heal_after_s: Optional[float] = None
    ) -> None:
        """Sever the control plane: probes and updates stop reaching the
        switch, but its data plane keeps forwarding."""
        slot = self._slots[index]
        slot.partition_depth += 1
        self.partitions += 1
        self._emit(FLEET_PARTITION, index, slot.partition_depth)
        if heal_after_s is not None:
            self.queue.schedule(
                self.queue.now + heal_after_s,
                lambda: self._heal_partition(index),
                PRIO_INTERNAL,
            )

    def _heal_partition(self, index: int) -> None:
        slot = self._slots[index]
        if slot.partition_depth > 0:
            slot.partition_depth -= 1
            if slot.partition_depth == 0:
                self.heals += 1
                self._emit(FLEET_HEAL, index)

    def inject_heartbeat_loss(self, index: int, count: int) -> None:
        """The next ``count`` probes to this switch are lost in transit."""
        self._slots[index].drop_probes += count
        self._emit(FLEET_HEARTBEAT_LOSS, index, count)

    def request_reassign(self, vip_rank: int, target: int) -> None:
        """Operator-style reassignment request by rank (fault-plan entry)."""
        if not self._vip_order:
            return
        vip = self._vip_order[vip_rank % len(self._vip_order)]
        self.reassign_vip(vip, target % len(self._slots))

    # ------------------------------------------------------------------
    # Membership changes (called by the controller)
    # ------------------------------------------------------------------

    def declare_down(self, index: int, reason: str = "unresponsive") -> None:
        """Detection fired: remove the switch from every hash group and
        re-home its connections to the survivors."""
        slot = self._slots[index]
        if not slot.in_ecmp:
            return
        slot.in_ecmp = False
        slot.ok_streak = 0
        self.detections += 1
        if slot.reachable and reason != "stale":
            self.false_detections += 1
        self._emit(FLEET_DECLARE_DOWN, index, reason)
        # A reassignment whose *destination* just died can never finish its
        # drain/redirect steps safely: abort it before the membership sweep
        # below, so the source announcer stays in the hash group and the
        # VIP is not withdrawn while a healthy announcer still serves it.
        for vip in [v for v, token in self._reassigning.items() if token[2] == index]:
            self._abort_reassignment(vip, reason="target-down")
        sid = self._ids[index]
        for vip in list(self._tables):
            table = self._tables[vip]
            if sid not in table.members:
                continue
            if len(table.members) == 1:
                # Last announcer: the VIP goes dark fleet-wide.
                del self._tables[vip]
            else:
                table.remove(sid)
        self._rehome_owned(index)

    def _rehome_owned(self, index: int) -> None:
        """Move the declared-down switch's flows to where they hash now."""
        conns = self._live(owner=index)
        moves = list(zip(self._owners(conns), conns))
        self._shed_for_capacity(moves)
        races = self._aborted_races

        def cause_of(conn: Connection) -> str:
            if conn.key in races:
                races.discard(conn.key)
                return RACE
            return REHASH

        self._move_flows(moves, cause_of)

    def _live(
        self, vip: Optional[VirtualIP] = None, owner: Optional[int] = None
    ) -> List[Connection]:
        """Registered flows still active now, in registration order —
        only ``vip``'s and/or only those owned by switch ``owner`` if
        given."""
        now = self.queue.now
        owners = self._owner
        return [
            conn
            for key, conn in self._conns.items()
            if (vip is None or conn.vip == vip)
            and (owner is None or owners[key] == owner)
            and conn.active_at(now)
        ]

    def _move_flows(
        self,
        moves: Sequence[Tuple[Optional[int], Connection]],
        cause_of: Callable[[Connection], str],
    ) -> None:
        """The one re-home sweep: hand each ``(target, conn)`` flow off to
        its target with the cause ``cause_of(conn)`` names, after warming
        the targets' ConnTables.  Flows of a shed VIP stay put — the shed
        already ended and attributed them."""
        shed = self._shed
        moves = [(target, conn) for target, conn in moves if conn.vip not in shed]
        self._prime_targets(moves)
        for target, conn in moves:
            self._hand_off(conn, target, cause_of(conn))

    def _hand_off(self, conn: Connection, target: Optional[int], cause: str) -> None:
        """Move one flow from its owner to ``target``, recording what
        happened to it."""
        key = conn.key
        old_index = self._owner[key]
        if target == old_index:
            return
        self._journal(
            conn.key_hash,
            (old_index + 2) * 1024 + (0 if target is None else target + 2),
        )
        now = self.queue.now
        if old_index >= 0:
            old_slot = self._slots[old_index]
            if old_slot.dataplane_up:
                # End it on the old instance so its state stops deciding;
                # a crashed owner was already quiesced at crash time.
                old_slot.switch.on_connection_end(conn)
        if target is None:
            # Nowhere to go: the VIP is unserved until an announcer rejoins.
            self._owner[key] = -1
            conn.record_decision(now, None)
            self._drop_cause.setdefault(key, BLACKHOLE)
            return
        self._owner[key] = target
        self._move_cause[key] = cause
        self.handoffs += 1
        slot = self._slots[target]
        if slot.serves(conn.vip):
            # If the target still holds the flow's ConnTable entry (it was
            # quiesced off this switch earlier and the entry hasn't aged
            # out), the packets hit it and keep the pinned version.
            # Otherwise the survivor sees new traffic: ConnTable miss,
            # current-version decision — §7's re-hash semantics.
            if not slot.switch.resume_connection(conn):
                slot.switch.on_connection_arrival(conn)
        else:
            # Cascading failure: the re-home target is itself dead and
            # undetected; the flow blackholes until that detection fires.
            conn.record_decision(now, None)
            self._drop_cause.setdefault(key, BLACKHOLE)

    def _shed_for_capacity(
        self, moves: Sequence[Tuple[Optional[int], Connection]]
    ) -> None:
        """Shed whole VIPs until every survivor fits its budget: of the VIPs
        contributing to the first over-budget switch, the earliest-announced
        goes first."""
        budget = self.conn_budget
        if budget is None:
            return
        while True:
            projected = [0] * len(self._slots)
            for conn in self._live():
                owner = self._owner[conn.key]
                if owner >= 0:
                    projected[owner] += 1
            for target, conn in moves:
                if target is not None and conn.vip not in self._shed:
                    projected[target] += 1
            for over, slot in enumerate(self._slots):
                if slot.in_ecmp and projected[over] > budget:
                    break
            else:
                return
            contributing = {conn.vip for conn in self._live(owner=over)}
            contributing.update(conn.vip for target, conn in moves if target == over)
            victim = next(
                (
                    vip
                    for vip in self._vip_order
                    if vip in contributing and vip not in self._shed
                ),
                None,
            )
            if victim is None:
                return  # nothing left to shed; the budget stays violated
            self._shed_vip(victim)

    def _shed_vip(self, vip: VirtualIP) -> None:
        """Drop a VIP fleet-wide: every flow ends, new flows are refused."""
        now = self.queue.now
        self._shed[vip] = None
        self._tables.pop(vip, None)
        self._reassigning.pop(vip, None)
        dropped = 0
        for key in [k for k, c in self._conns.items() if c.vip == vip]:
            conn = self._conns.pop(key)
            owner = self._owner.pop(key)
            if owner >= 0:
                slot = self._slots[owner]
                if slot.dataplane_up:
                    slot.switch.on_connection_end(conn)
            if conn.active_at(now):
                conn.record_decision(now, None)
                self._drop_cause[key] = SHED
                dropped += 1
        self.vips_shed += 1
        self.shed_connections += dropped
        self._emit(FLEET_SHED, str(vip), dropped)

    def rejoin(self, index: int) -> None:
        """Detection cleared: re-sync state, then re-enter the hash groups.

        Order matters for PCC: the fresh instance announces every assigned
        VIP at its *current* pool (state re-learn) before any hash group
        can steer a flow to it — a stale announcement would hand out
        old-version decisions to re-hashed flows.
        """
        slot = self._slots[index]
        if slot.in_ecmp or not slot.dataplane_up:
            return
        if not slot.synced:
            self._resync(index)
        sid = self._ids[index]
        for vip in self._vip_order:
            if index not in self._assignment[vip] or vip in self._shed:
                continue
            table = self._tables.get(vip)
            if table is None:
                # The VIP went dark; it comes back to life on this switch.
                self._tables[vip] = ResilientHashTable([sid], num_slots=ECMP_SLOTS)
            elif sid not in table.members:
                table.add(sid)
            else:
                continue
            # Flows on the slots the rejoined switch took move to it —
            # exactly a failover in reverse (every flow of a dark VIP).
            conns = [c for c in self._live(vip) if self._owner[c.key] != index]
            self._move_flows(
                [(t, c) for t, c in zip(self._owners(conns), conns) if t == index],
                lambda conn: REHASH,
            )
        slot.in_ecmp = True
        slot.missed = 0
        self.rejoins += 1
        self._emit(FLEET_REJOIN, index, slot.generation)

    def _resync(self, index: int) -> None:
        """State re-learn: announce every assigned VIP at its current pool."""
        slot = self._slots[index]
        if slot.announced:
            # A stale live instance (missed updates) cannot be patched
            # version-by-version from outside; it flushes and re-learns.
            self._fresh_instance(index)
        for vip in self._vip_order:
            if index not in self._assignment[vip] or vip in self._shed:
                continue
            slot.switch.announce_vip(vip, tuple(self._pools[vip]))
            slot.announced.add(vip)
        slot.synced = True
        self.resyncs += 1
        self._emit(FLEET_RESYNC, index, slot.generation)

    # ------------------------------------------------------------------
    # PCC-safe VIP reassignment (3 steps at fleet scope)
    # ------------------------------------------------------------------

    def reassign_vip(self, vip: VirtualIP, to_index: int) -> bool:
        """Move a VIP announcement onto ``to_index``: announce → drain →
        redirect, mirroring the 3-step update's shape at fleet scope.

        Returns True when the reassignment was started.  The drain source
        is the VIP's lowest-indexed current announcer other than the
        target.  Flows arriving between the announce and the redirect are
        the mid-reassignment race population; the redirect attributes them
        as such.
        """
        to_slot = self._slots[to_index]
        table = self._tables.get(vip)
        members = () if table is None else table.members
        sources = sorted(m.index for m in members if m.index != to_index)
        if (
            not sources
            or vip in self._shed
            or vip in self._reassigning
            or vip not in self._assignment
            or not to_slot.dataplane_up
            or not to_slot.synced
            or vip in to_slot.announced
        ):
            self.reassignments_skipped += 1
            return False
        from_index = sources[0]
        now = self.queue.now
        # Step 1 — re-announce on the target at the current pool.  The
        # target starts receiving updates for the VIP from here on.
        to_slot.switch.announce_vip(vip, tuple(self._pools[vip]))
        to_slot.announced.add(vip)
        if to_index not in self._assignment[vip]:
            self._assignment[vip] = sorted(self._assignment[vip] + [to_index])
        self._reassigning[vip] = (now, from_index, to_index)
        self.reassignments_started += 1
        self._emit(FLEET_REASSIGN_ANNOUNCE, str(vip), from_index, to_index)
        self.queue.schedule(
            now + ANNOUNCE_DELAY_S,
            lambda: self._reassign_drain(vip),
            PRIO_INTERNAL,
        )
        return True

    def _reassign_drain(self, vip: VirtualIP) -> None:
        """Step 2 — swing the hash group: new flows stop landing on the
        source (its slots now belong to the target)."""
        token = self._reassigning.get(vip)
        if token is None:
            return  # shed or otherwise aborted mid-flight
        _, from_index, to_index = token
        table = self._tables.get(vip)
        if table is None:
            self._reassigning.pop(vip, None)
            return
        if not self._slots[to_index].serves(vip):
            # The destination died (or restarted un-synced) between the
            # announce and the drain: swinging the hash group now would
            # steer the VIP into a blackhole.  Abort; the source keeps it.
            self._abort_reassignment(vip, reason="target-lost")
            return
        to_id = self._ids[to_index]
        from_id = self._ids[from_index]
        if to_id not in table.members:
            table.add(to_id)
        if from_id in table.members and len(table.members) > 1:
            table.remove(from_id)
        self._emit(FLEET_REASSIGN_DRAIN, str(vip), from_index, to_index)
        self.queue.schedule(
            self.queue.now + DRAIN_WINDOW_S,
            lambda: self._reassign_redirect(vip),
            PRIO_INTERNAL,
        )

    def _reassign_redirect(self, vip: VirtualIP) -> None:
        """Step 3 — redirect the stragglers still pinned to the source."""
        token = self._reassigning.get(vip)
        if token is None:
            return
        t0, from_index, to_index = token
        if not self._slots[to_index].serves(vip):
            # Destination lost mid-drain-window and not yet detected:
            # redirecting the stragglers would end healthy flows into a
            # blackhole.  Abort instead — they stay pinned to the source.
            self._abort_reassignment(vip, reason="target-lost")
            return
        self._reassigning.pop(vip, None)
        conns = self._live(vip, owner=from_index)
        self._move_flows(
            list(zip(self._owners(conns), conns)),
            lambda conn: RACE if conn.start >= t0 else REHASH,
        )
        assigned = self._assignment.get(vip)
        if assigned and from_index in assigned and from_index != to_index:
            assigned.remove(from_index)
        self.reassignments_completed += 1
        self._emit(FLEET_REASSIGN_REDIRECT, str(vip), from_index, len(conns))

    def _abort_reassignment(self, vip: VirtualIP, reason: str) -> None:
        """Roll an in-flight reassignment back onto its source.

        Invoked whenever the *destination* stops serving the VIP inside
        the 3-step window (crash, restart-without-resync) — from the step
        handlers themselves or from :meth:`declare_down` racing them.  The
        source announcer is restored to the hash group if the drain had
        already removed it, so flows stay on the source; arrivals that
        landed on the doomed destination during the window are remembered
        in ``_aborted_races`` and attributed as ``reassignment_race`` when
        the detection re-home moves them.
        """
        token = self._reassigning.pop(vip, None)
        if token is None:
            return
        t0, from_index, to_index = token
        from_slot = self._slots[from_index]
        table = self._tables.get(vip)
        if (
            table is not None
            and from_slot.serves(vip)
            and self._ids[from_index] not in table.members
        ):
            table.add(self._ids[from_index])
        races = [c.key for c in self._live(vip, owner=to_index) if c.start >= t0]
        self._aborted_races.update(races)
        # Roll back the announce step's assignment change: the destination
        # must not re-announce the VIP on a later rejoin as if the
        # cancelled reassignment had completed.
        assigned = self._assignment.get(vip)
        if assigned and to_index in assigned and from_index in assigned:
            assigned.remove(to_index)
        self.reassignments_aborted += 1
        self._emit(
            FLEET_REASSIGN_ABORT, str(vip), from_index, to_index, reason, len(races)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def instances(self) -> Iterator[Tuple[int, int, SilkRoadSwitch]]:
        """Every switch instance this fleet ever ran, retirees first."""
        yield from self._retired
        for index, slot in enumerate(self._slots):
            yield index, slot.generation, slot.switch

    def merged_registry(self) -> MetricRegistry:
        """Fleet metrics plus every instance's registry, prefix-folded."""
        merged = MetricRegistry(labels={"fleet": self.name})
        merged.merge(self.metrics, prefix="fleet")
        for index, generation, switch in self.instances():
            if not getattr(switch, "materialized", True):
                continue
            merged.merge(switch.metrics, prefix=f"inst.sw{index}g{generation}")
        return merged

    def fingerprint(self) -> str:
        return self.merged_registry().fingerprint()

    def in_ecmp_switches(self) -> List[int]:
        return [i for i, slot in enumerate(self._slots) if slot.in_ecmp]

    def alive_switches(self) -> List[int]:
        return [i for i, slot in enumerate(self._slots) if slot.dataplane_up]

    def report(self) -> Dict[str, float]:
        """The control-plane counters plus live shape (switches up, probes,
        ConnTable entries per switch): the one ``report()`` left, for the
        reasons given at :data:`_COUNTERS`."""
        report: Dict[str, float] = {
            **{counter: float(getattr(self, counter)) for counter in _COUNTERS},
            "switches_in_ecmp": float(len(self.in_ecmp_switches())),
            "switches_up": float(len(self.alive_switches())),
            "probes_sent": float(self.controller.probes_sent),
            "probes_missed": float(self.controller.probes_missed),
        }
        live_entries = 0
        for slot in self._slots:
            if slot.dataplane_up and getattr(slot.switch, "materialized", True):
                entries = len(slot.switch.conn_table)
                report[f"{slot.switch.name}_conn_entries"] = float(entries)
                live_entries += entries
        report["fleet_conn_entries"] = float(live_entries)
        return report


# ----------------------------------------------------------------------
# Fleet-wide audit
# ----------------------------------------------------------------------


@dataclass
class FleetAuditReport(Tally):
    """Structural audits of every instance + the fleet's violations and
    drops by cause (:data:`~repro.obs.causes.FLEET_CAUSES`, ``switch_local``)."""

    audit: AuditReport = field(default_factory=AuditReport)

    @property
    def ok(self) -> bool:
        return self.audit.ok and not self.failures()

    def __str__(self) -> str:
        causes = ", ".join(
            f"{name}={count}"
            for name, count in self.violation_causes.items()
            if count
        )
        return (
            f"fleet audit: {'ok' if self.ok else 'FAILED'} — "
            f"{self.violations} violations ({causes or 'none'}), "
            f"{self.dropped} dropped, "
            f"{self.unattributed_violations} unattributed violations, "
            f"{self.unattributed_drops} unattributed drops; "
            f"structural: {self.audit.checks_run} checks, "
            f"{len(self.audit.violations)} failures"
        )

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(str(self))

    def fingerprint(self) -> str:
        """Bit-exact digest of the attribution outcome.

        Cause buckets and structural violations are emitted in sorted
        order, so the digest of a partitioned run's merged report is
        invariant to the worker count (which only permutes merge order).
        """
        hasher = hashlib.sha256()
        hasher.update(f"checks={self.audit.checks_run}\n".encode())
        for violation in sorted(self.audit.violations):
            hasher.update(f"structural={violation}\n".encode())
        for name in sorted(self.violation_causes):
            hasher.update(
                f"violation.{name}={self.violation_causes[name]}\n".encode()
            )
        for name in sorted(self.drop_causes):
            hasher.update(f"drop.{name}={self.drop_causes[name]}\n".encode())
        hasher.update(
            f"totals={self.violations},{self.dropped},"
            f"{self.unattributed_violations},{self.unattributed_drops}\n".encode()
        )
        return hasher.hexdigest()


def collect_structural(fleet: FleetSilkRoad) -> Tuple[AuditReport, Set[bytes]]:
    """Structurally audit every materialized instance of ``fleet`` and
    union the per-switch attribution-prediction key sets.

    A partition replica contributes only the instances it owns; since
    every real instance exists on exactly one replica, merging the
    replicas' reports reconstructs the serial audit.
    """
    merged = AuditReport()
    predicted: Set[bytes] = set()
    for index, generation, switch in fleet.instances():
        if not getattr(switch, "materialized", True):
            continue
        merged.merge(audit_switch(switch), label=f"sw{index}g{generation}")
        for _cause, keys in AttributionRule.for_switch(switch).exposures:
            predicted |= keys
    return merged, predicted


def connection_outcomes(
    connections: Sequence[Connection],
) -> List[Tuple[bytes, Tuple[str, ...], bool, bool, float]]:
    """Compact per-connection outcome rows for cross-process merging.

    Each row is ``(key, sorted distinct DIP strings, ever_dropped,
    broken_by_removal, start)``.  Rows from different partition replicas
    merge per key by unioning the DIP sets and OR-ing the flags — a
    replica that never materialized the owning switch simply contributes
    the fleet-recorded share (blackholes, quiesces) of the decisions.
    """
    return [
        (
            conn.key,
            tuple(sorted({str(dip) for _t, dip in conn.decisions if dip is not None})),
            conn.ever_dropped,
            conn.broken_by_removal,
            conn.start,
        )
        for conn in connections
    ]


def attribute_outcomes(
    structural: AuditReport,
    outcomes: Iterable[Outcome],
    move_causes: Dict[bytes, str],
    drop_cause_map: Dict[bytes, str],
    predicted: Set[bytes],
) -> FleetAuditReport:
    """Attribute ``(key, pcc_violated, ever_dropped)`` rows to causes.

    The attribution half of :func:`audit_fleet`, factored out so the
    partitioned runner can feed it merged outcome rows and a merged
    structural report instead of live objects.  The rule is the fleet's
    cause maps over one exposure set, ``switch_local`` = ``predicted``;
    ``structural`` is folded into the report, with the two fleet-level
    checks and any unattributed-bucket lines appended to it.
    """
    report = FleetAuditReport(
        audit=structural,
        violation_causes=Counter(dict.fromkeys(FLEET_CAUSES + (SWITCH_LOCAL,), 0)),
        drop_causes=Counter(dict.fromkeys(FLEET_CAUSES, 0)),
    )
    rule = AttributionRule(((SWITCH_LOCAL, predicted),), move_causes, drop_cause_map)
    report.count(rule, outcomes)
    structural.checks_run += 2
    structural.violations.extend(report.failures(prefix="[fleet] "))
    return report


def audit_fleet(
    fleet: FleetSilkRoad, connections: Sequence[Connection]
) -> FleetAuditReport:
    """Audit every switch instance structurally, then attribute every PCC
    violation and every dropped connection to exactly one cause.

    Attribution is *by construction*: a connection's DIP decision can only
    change through (a) the single-switch fault machinery — whose keys the
    PR 3 auditor already collects per instance — or (b) a fleet-initiated
    move, shed, or blackhole, each recorded in the fleet's cause maps at
    the moment it happens.  Anything in neither bucket lands in the
    unattributed counters and fails the audit.
    """
    structural, predicted = collect_structural(fleet)
    rows = ((c.key, c.pcc_violated, c.ever_dropped) for c in connections)
    return attribute_outcomes(
        structural, rows, fleet._move_cause, fleet._drop_cause, predicted
    )
