"""SilkRoad: the stateful L4 load balancer in a switching ASIC (§4, §5).

:class:`SilkRoadSwitch` composes the four tables of Figure 10 —

* **ConnTable** (multi-stage cuckoo, digest -> version),
* **VIPTable** (VIP -> version, with the step-2 dual-version transition),
* **DIPPoolTable** ((VIP, version) -> pool, with version reuse),
* **TransitTable** (pending-connection Bloom filter),

plus the learning filter, the switch-CPU insertion model, and the 3-step
PCC update coordinator.  It implements the flow-level simulator's
:class:`~repro.netsim.simulator.LoadBalancer` interface, recording every
forwarding-decision change onto the connections it carries.

Setting ``config.use_transit_table = False`` gives the paper's
"SilkRoad without TransitTable" ablation: updates execute immediately and
pending connections re-hash, breaking PCC for the few milliseconds of the
insertion window (Figures 16-18).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Optional, Set, Tuple

from ..asicsim.batch import PacketBatch
from ..asicsim.cuckoo import DuplicateKey, TableFull
from ..asicsim.learning_filter import LearnBatch, LearningFilter
from ..asicsim.meters import MeterBank
from ..netsim.events import EventHandle, EventQueue
from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.simulator import LoadBalancer, PRIO_ARRIVAL, PRIO_INTERNAL
from ..netsim.updates import UpdateEvent, UpdateKind
from ..obs import FlightRecorder, MetricRegistry, telemetry_to_dict
from ..obs.events import (
    CONN_AT_RISK,
    CONN_EVICT,
    CONN_FIN,
    CONN_FP_ADOPTED,
    CONN_FP_SYN_REDIRECT,
    CONN_INSTALL,
    CONN_MARKED,
    CONN_OVERFLOW,
    CONN_RESUME,
    CONN_SYN,
    SLOWPATH_BATCH_DELAYED,
    SLOWPATH_BATCH_DELIVERED,
    SLOWPATH_BATCH_LOST,
    SLOWPATH_CPU_CRASH,
    SLOWPATH_CPU_RESTART,
    SLOWPATH_CPU_STALL,
    SLOWPATH_JOB_INSTALL_FAILED,
    SLOWPATH_JOB_LOST,
    SLOWPATH_JOB_SHED,
    SLOWPATH_RELEARN,
    UPDATE_STALE,
    UPDATE_T_EXEC,
    UPDATE_T_FINISH,
    UPDATE_T_REQ,
    UPDATE_VERSION_EXHAUSTED,
    UPDATE_WATCHDOG_FORCED,
)
from .config import SilkRoadConfig
from .conn_table import ConnTable
from .control_plane import SwitchCpu
from .dip_pool_table import DipPoolTable, VersionsExhausted
from .pcc_update import Phase, UpdateCoordinator
from .sram_cost import vip_entry
from .transit_table import TransitTable
from .vip_table import VipTable

#: Learn events the learning filter holds before it flushes (§4.1: 2 K).
LEARNING_FILTER_CAPACITY = 2048
#: A connection's ConnTable entry ages out this long after its last packet.
IDLE_TIMEOUT_S = 1.0
#: Software handling time for a redirected (false-positive) TCP SYN (§4.2).
FP_RESOLUTION_DELAY_S = 2e-3
# Slow-path hardening (failure model; see docs/robustness.md).
#: PCI-E ConnTable writes that fail (injected faults) are retried this
#: many times before the job is given up and the key re-learned.
INSTALL_RETRY_LIMIT = 3
#: Base delay before an install retry; attempt ``n`` waits ``n`` times
#: this (linear backoff — the bus recovers quickly or not at all).
INSTALL_RETRY_BACKOFF_S = 1e-4
#: A key whose write failed every retry is re-learned after this backoff
#: (or an acknowledged install, or the CPU's restart); it doubles while
#: writes fail, up to the cap, the longest a key waits past a fault window.
RELEARN_BACKOFF_S = 1e-2
RELEARN_BACKOFF_MAX_S = 0.16
#: Why a slow-path job left without installing -> the event that says so.
_JOB_DROPPED = {
    "shed": SLOWPATH_JOB_SHED,
    "lost": SLOWPATH_JOB_LOST,
    "install_failed": SLOWPATH_JOB_INSTALL_FAILED,
}

#: The switch's own counts: ``switch.<name>`` registry counter -> help text.
#: ``__init__`` registers each as ``self._m_<name>``, the class reads each
#: back through a read-only ``int`` view of the same name.
_COUNTERS: Dict[str, str] = {
    "connections_seen": "connection arrivals",
    "fp_syn_redirects": "SYNs redirected on digest collision",
    "transit_fp_adopted": "conns pinned to old version by Bloom FP",
    "table_full_events": "insertions hitting a full ConnTable",
    "overflow_pinned": "conns pinned in software on overflow",
    "version_exhaustion_events": "updates dropped: version space full",
    # See ``_execute_update``: counted, never raised.
    "stale_updates": "updates skipped: pool already in the asked-for state",
    "at_risk_connections": "conns reclassified at-risk by watchdogs",
    "resumed_connections": "quiesced conns steered back before their entry aged out",
}


@dataclass(slots=True)
class _ConnState:
    """Everything the switch (hardware + software) knows about one conn.

    ``slots=True``: one instance per admitted connection, and both the
    allocation and the attribute traffic on the install/end/expire paths
    are measurably cheaper without a per-instance ``__dict__``.  Its ten
    slots fill the 112-byte allocation exactly: the VIP is read off the
    connection record, not stored a second time, which leaves room for
    ``remapped`` (an eleventh slot grows every state to 128 bytes).
    """

    conn: Connection
    version: int
    installed: bool = False
    dead: bool = False
    #: ConnTable was full; the connection will never install (slow path).
    overflowed: bool = False
    #: the connection was written into the TransitTable during step 1.
    marked: bool = False
    #: step-2 Bloom false positive made this conn adopt the old version.
    adopted_old_via_fp: bool = False
    #: a watchdog force-advanced past this conn: its PCC protection window
    #: closed early and a violation, if any, is attributed to the fault.
    at_risk: bool = False
    #: a remap path re-selected this pending conn's DIP against another
    #: version; its install must revert the decision to ``version``'s pick.
    remapped: bool = False
    current_dip: Optional[DirectIP] = None


class SilkRoadSwitch(LoadBalancer):
    """One SilkRoad switch instance."""

    def __init__(
        self,
        config: SilkRoadConfig = SilkRoadConfig(),
        name: str = "silkroad",
        registry: Optional[MetricRegistry] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        self.name = name
        self.config = config
        #: Optional flight recorder; ``None`` (the default) keeps every
        #: record site to one attribute load + branch, so the hot path is
        #: untouched unless forensics are requested (attach_recorder).
        self.recorder = recorder
        # Every switch owns a metrics registry (always-on, the instruments
        # are cheap); callers may inject a shared one instead.
        self.metrics = (
            registry
            if registry is not None
            else MetricRegistry(labels={"switch": name})
        )
        self._cpu_metrics = self.metrics.scope("switch_cpu")
        self.vip_table = VipTable()
        self.dip_pools = DipPoolTable(
            version_bits=config.version_bits, version_reuse=config.version_reuse
        )
        self.conn_table = ConnTable(config, metrics=self.metrics.scope("conn_table"))
        self.transit = TransitTable(
            size_bytes=config.transit_table_bytes,
            metrics=self.metrics.scope("transit_table"),
        )
        self.meters = MeterBank(metrics=self.metrics.scope("meters"))
        self.learning = LearningFilter(
            capacity=LEARNING_FILTER_CAPACITY,
            timeout=config.learning_filter_timeout_s,
            metrics=self.metrics.scope("learning_filter"),
        )
        self.coordinator = UpdateCoordinator(
            pending_keys=self._pending_keys_of,
            execute=self._execute_update,
            finish=self._finish_update,
            mark=self._mark_transit,
            now=lambda: self.queue.now,
            start=self._transit_update_started,
            metrics=self.metrics.scope("update"),
            step_deadline_s=config.update_step_deadline_s,
            schedule=lambda delay, action: self.queue.schedule_in(
                delay, action, PRIO_INTERNAL
            ),
            on_at_risk=self._on_at_risk,
        )
        self._states: Dict[bytes, _ConnState] = {}
        #: TransitTable update-id token per VIP mid-update (the coordinator
        #: serializes updates per VIP, so one token per VIP suffices).
        self._transit_update_ids: Dict[VirtualIP, int] = {}
        self._pending_by_vip: Dict[VirtualIP, Set[bytes]] = {}
        self._conns_on: Dict[Tuple[VirtualIP, DirectIP], Set[bytes]] = {}
        #: Live, un-installed connections whose slow-path job was dropped
        #: (shed, lost, failed, or in a lost notification): key -> job
        #: metadata, oldest first.  A subset of the pending index, so it
        #: needs no bound of its own.
        self._waiting: Dict[bytes, Tuple] = {}
        self._poll_handle: Optional[EventHandle] = None
        self._relearn_handle: Optional[EventHandle] = None
        self._relearn_backoff_s = RELEARN_BACKOFF_S
        # Fault-delivery state (set by repro.faults.FaultInjector).
        self._drop_notifications = 0
        self._delay_notifications = 0
        self._notification_delay_s = 0.0
        #: Keys whose PCC exposure the fault model predicts — watchdog
        #: reclassifications, ConnTable overflows, step-2 Bloom adoptions.
        #: Persisted past connection death so post-run audits can attribute
        #: every observed violation (see :mod:`repro.core.verify`).
        self.at_risk_keys: Set[bytes] = set()
        self.overflow_keys: Set[bytes] = set()
        self.fp_adopted_keys: Set[bytes] = set()
        # Slow-path losses count into the registry only (``relearns`` views it).
        slow_path = self.metrics.scope("slow_path")
        self._m_relearns = slow_path.counter(
            "relearns_total", "connections re-learned after a slow-path loss"
        )
        self._m_notifications_lost = slow_path.counter(
            "notifications_lost_total", "learning-filter batches lost in delivery"
        )
        self._m_notifications_delayed = slow_path.counter(
            "notifications_delayed_total", "learning-filter batches delivered late"
        )
        scope = self.metrics.scope("switch")
        for counter, help_text in _COUNTERS.items():
            setattr(self, f"_m_{counter}", scope.counter(counter, help_text))
        # Two derived sizes, as callback gauges: paid at sample/export time.
        scope.gauge("pending_connections", "arrived but not yet installed").set_function(
            lambda: float(self.pending_connections())
        )
        scope.gauge("sram_bytes", "SRAM across all SilkRoad tables").set_function(
            lambda: float(self.sram_bytes())
        )
        # A private queue lets the switch be driven directly as a library
        # object; FlowSimulator.bind() replaces it with the shared one.
        self.bind(EventQueue())

    relearns = property(lambda self: int(self._m_relearns.value))

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------

    def announce_vip(self, vip: VirtualIP, dips) -> None:
        """Install a VIP with its initial DIP pool."""
        version = self.dip_pools.add_vip(vip, dips)
        self.vip_table.install(vip, version)

    # ------------------------------------------------------------------
    # LoadBalancer interface
    # ------------------------------------------------------------------

    def on_connection_arrival(self, conn: Connection) -> None:
        now = self.queue.now
        key = conn.key
        key_hash = conn.key_hash
        self._m_connections_seen.value += 1.0
        recorder = self.recorder
        if recorder is not None:
            recorder.record(now, CONN_SYN, key, str(conn.vip))
        result = self.conn_table.lookup(key, key_hash)
        if result.hit:
            # New connections are unique, so a hit is a digest false
            # positive.  The SYN is redirected to the CPU, which relocates
            # the colliding entry and installs this connection directly.
            assert result.false_positive
            self._m_fp_syn_redirects.value += 1.0
            if recorder is not None:
                recorder.record(now, CONN_FP_SYN_REDIRECT, key)
            state = self._admit(conn, now)
            self.cpu.submit_one(key, ("fp",), extra_delay_s=FP_RESOLUTION_DELAY_S)
            return
        state = self._admit(conn, now)
        learning = self.learning
        batch = learning.offer(key, now, key_hash=key_hash)
        if batch is not None:  # a re-offer during delivery arms its own poll
            self._cancel_poll()
            self._deliver_batch(batch)
        elif self._poll_handle is None:
            # Events pend and no poll is armed (``_arm_poll``, inline).
            self._poll_handle = self.queue.schedule(
                learning.next_deadline(), self._poll_fire, PRIO_INTERNAL
            )

    def prepare_batch(self, conns) -> None:
        """Columnar precomputation for an upcoming window of arrivals.

        Materializes the :class:`PacketBatch` columns (key bytes, base
        hashes — one bulk byte pass) and primes the ConnTable profile
        caches for the whole window.  This is pure per-key derivation: no
        observable switch state is touched, so the batched driver runs it
        over windows of *future* arrivals regardless of the ends, updates
        and internal events interleaved between them.  Only the profile
        cache's LRU order (unobservable) can differ from scalar execution.
        """
        batch = PacketBatch.from_connections(conns)
        self.conn_table.prime_profiles(batch.keys, batch.base_hashes)

    def on_connection_batch(self, conns) -> None:
        """A chunk of arrivals, each at its own timestamp.

        Before each element the internal events the scalar driver would
        have fired first (learning-filter polls, CPU install completions,
        expiries, fault events) are drained — the intra-batch ordering
        rule (docs/architecture.md).
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
        state = self._states.get(key)
        if state is None:
            return
        state.dead = True
        queue = self.queue
        if self.recorder is not None:
            self.recorder.record(queue.now, CONN_FIN, key, state.installed)
        conn = state.conn
        bucket = self._conns_on.get((conn.vip, state.current_dip))
        if bucket is not None:
            bucket.discard(key)
        if state.installed:
            # Entry ages out IDLE_TIMEOUT_S after the last packet.  The timer
            # is pinned to this state object: if the key is re-admitted (or
            # ended twice, e.g. by a fleet hand-off racing the flow's own
            # FIN) before the timer fires, a stale timer must not evict the
            # newer entry or double-release its pool version.
            states = self._states

            def expire(state: _ConnState = state) -> None:
                if states.get(key) is not state:
                    return
                del states[key]
                try:
                    self.conn_table.delete(key)
                except KeyError:  # pinned in software on overflow: no entry
                    pass
                else:
                    if self.recorder is not None:
                        self.recorder.record(queue.now, CONN_EVICT, key)
                self.dip_pools.release(conn.vip, state.version)

            queue.schedule(queue.now + IDLE_TIMEOUT_S, expire, PRIO_INTERNAL)
        else:
            pending = self._pending_by_vip.get(state.conn.vip)
            if pending is not None:
                pending.discard(key)
            self._waiting.pop(key, None)
            self.coordinator.on_pending_aborted(state.conn.vip, key)
            self.dip_pools.release(state.conn.vip, state.version)
            del self._states[key]

    def resume_connection(self, conn: Connection) -> bool:
        """Re-adopt a flow steered back to this switch mid-life.

        When fabric ECMP re-steers a previously quiesced flow back here
        (failover ping-pong, a healed partition, a drained VIP returning)
        before its ConnTable entry ages out, the packets simply hit the
        surviving entry: the connection keeps its pinned version — no SYN,
        no learning filter, no new install.  Returns ``False`` when no
        lingering installed entry exists, in which case the caller replays
        a fresh arrival instead.
        """
        key = conn.key
        state = self._states.get(key)
        if state is None or not state.installed or key not in self.conn_table:
            return False
        now = self.queue.now
        # A fresh state object detaches the idle-timeout timer the quiesce
        # armed (expiry fires only against its own state instance).
        fresh = _ConnState(conn=state.conn, version=state.version)
        fresh.installed = True
        fresh.marked = state.marked
        fresh.overflowed = state.overflowed
        fresh.adopted_old_via_fp = state.adopted_old_via_fp
        fresh.at_risk = state.at_risk
        self._states[key] = fresh
        bucket = self._conns_on.get((state.conn.vip, state.current_dip))
        if bucket is not None:
            bucket.discard(key)
        dip = self.dip_pools.select(state.conn.vip, state.version, key, conn.key_hash)
        self._set_decision(fresh, dip, now)
        self._m_resumed_connections.value += 1.0
        if self.recorder is not None:
            self.recorder.record(now, CONN_RESUME, key, state.version)
        return True

    def apply_update(
        self,
        event: UpdateEvent,
        on_finished: Optional[Callable[[VirtualIP, object], None]] = None,
    ) -> None:
        """Request a DIP-pool update.

        ``on_finished``, when given, fires once the update reaches
        ``t_finish`` (immediately in the no-TransitTable ablation, where
        updates execute in one step) — the hook the serving mode's
        admin-initiated drains use to track completion without polling.
        """
        if self.config.use_transit_table:
            self.coordinator.request(event, on_finished=on_finished)
        else:
            self._execute_update(event)
            if on_finished is not None:
                on_finished(event.vip, None)

    def finalize(self) -> None:
        # Cancel the armed timeout poll first: the flush below empties the
        # filter, and a timer left armed would later fire poll() against
        # the already-flushed filter (or a refilled one, flushing it early).
        self._cancel_poll()
        batch = self.learning.flush(self.queue.now)
        if batch is not None:
            self._deliver_batch(batch)

    # ------------------------------------------------------------------
    # Introspection (control API / serving mode)
    # ------------------------------------------------------------------

    def current_dips(self, vip: VirtualIP) -> Tuple[DirectIP, ...]:
        """Distinct DIPs in the VIP's *current* pool version, slot order."""
        version = self.dip_pools.current_version(vip)
        seen: Dict[DirectIP, None] = {}
        for dip in self.dip_pools.pool(vip, version).slots:
            seen.setdefault(dip, None)
        return tuple(seen)

    def dip_weight(self, vip: VirtualIP, dip: DirectIP) -> int:
        """Slot multiplicity of ``dip`` in the current pool (0 if absent)."""
        version = self.dip_pools.current_version(vip)
        return sum(1 for d in self.dip_pools.pool(vip, version).slots if d == dip)

    def live_connections_on(self, vip: VirtualIP, dip: DirectIP) -> int:
        """Live connections currently mapped to ``(vip, dip)``.

        Ended connections leave the index immediately, so a drained DIP
        reads 0 exactly when its last pinned connection finishes — the
        signal the serving mode's drain-completion check polls.
        """
        bucket = self._conns_on.get((vip, dip))
        return len(bucket) if bucket else 0

    # ------------------------------------------------------------------
    # Admission: version decision for a brand-new connection (Figure 10)
    # ------------------------------------------------------------------

    def _admit(self, conn: Connection, now: float) -> _ConnState:
        vip = conn.vip
        key = conn.key
        key_hash = conn.key_hash
        entry = self.vip_table.lookup(vip)
        adopted_old = False
        if entry.old_version is not None and self.config.use_transit_table:
            # Step 2: ConnTable miss -> consult the TransitTable.
            query = self.transit.check(key, key_hash)
            if query.positive:
                # A new connection can only hit the filter falsely.
                self._m_transit_fp_adopted.value += 1.0
                self.fp_adopted_keys.add(key)
                assert entry.old_version is not None
                version = entry.old_version
                adopted_old = True
                if self.recorder is not None:
                    self.recorder.record(
                        now, CONN_FP_ADOPTED, key, str(vip), entry.old_version
                    )
            else:
                version = entry.current_version
        else:
            version = entry.current_version
        state = _ConnState(conn=conn, version=version)
        state.adopted_old_via_fp = adopted_old
        self._states[key] = state
        self.dip_pools.acquire(vip, version)
        # get-then-insert instead of setdefault: this runs once per
        # admitted connection and setdefault would allocate a throwaway
        # set on every call once the VIP's entry exists.
        pending = self._pending_by_vip.get(vip)
        if pending is None:
            pending = self._pending_by_vip[vip] = set()
        pending.add(key)
        # Step 1 of an in-flight update marks the connection; a VIP with
        # no update in flight has nothing to mark.
        coordinator = self.coordinator
        if vip in coordinator.busy_vips and coordinator.note_new_pending(vip, key):
            state.marked = True
            if self.recorder is not None:
                self.recorder.record(now, CONN_MARKED, key, str(vip))
        dip = self.dip_pools.select(vip, version, key, key_hash)
        self._set_decision(state, dip, now)
        return state

    # ------------------------------------------------------------------
    # CPU completion path
    # ------------------------------------------------------------------

    def _on_installed(self, key: bytes, metadata: Tuple) -> None:
        """The CPU acknowledged a ConnTable write job: the one call a
        completed install makes into the switch."""
        state = self._states.get(key)
        # A connection that ended before its entry was written needs
        # nothing (the abort already told the coordinator).
        if state is not None and not state.dead:
            now = self.queue.now
            conn = state.conn
            key_hash, vip = conn.key_hash, conn.vip
            if metadata and metadata[0] == "fp":
                # Redirected SYN: resolve the digest collision first.
                self.conn_table.relocate_colliding_entry(key, key_hash)
            try:
                result = self.conn_table.insert(key, state.version, key_hash)
            except TableFull:
                self._m_table_full_events.value += 1.0
                if self.config.overflow_to_software:
                    # §7 hybrid: the connection is pinned in software
                    # (switch CPU or an SLB), so its mapping is frozen and
                    # PCC holds; only the forwarding medium changes.
                    self._m_overflow_pinned.value += 1.0
                    state.installed = True
                    self._pending_by_vip[vip].discard(key)
                    self.coordinator.on_installed(vip, key)
                    if self.recorder is not None:
                        self.recorder.record(now, CONN_OVERFLOW, key, True)
                else:
                    # The connection stays on the slow path: it will re-hash
                    # at the next VIPTable flip.  Tell the coordinator to
                    # stop waiting for it (and never snapshot it again), or
                    # updates would stall forever.
                    state.overflowed = True
                    self.overflow_keys.add(key)
                    self.coordinator.on_pending_aborted(vip, key)
                    if self.recorder is not None:
                        self.recorder.record(now, CONN_OVERFLOW, key, False)
            except DuplicateKey:
                pass
            else:
                state.installed = True
                self._relearn_backoff_s = RELEARN_BACKOFF_S
                if self.recorder is not None:
                    self.recorder.record(
                        now, CONN_INSTALL, key, state.version, result.moves
                    )
                self._pending_by_vip[vip].discard(key)
                if vip in self.coordinator.busy_vips:
                    self.coordinator.on_installed(vip, key)
                # The entry pins the connection to its arrival version.
                # Only a remap path (``_set_decision`` is the only writer of
                # ``current_dip``) moves a pending decision off that
                # version's pick; every other connection holds its admission
                # selection (docs/architecture.md).
                if state.remapped:
                    dip = self.dip_pools.select(vip, state.version, key, key_hash)
                    self._set_decision(state, dip, now)
        # The finished job freed a CPU slot for the oldest waiting keys.
        waiting = self._waiting
        if waiting:
            waiting.pop(key, None)
            self._reoffer()

    # ------------------------------------------------------------------
    # Update execution (t_exec) and completion (t_finish)
    # ------------------------------------------------------------------

    def _execute_update(self, event: UpdateEvent) -> None:
        now = self.queue.now
        vip = event.vip
        old_version = self.dip_pools.current_version(vip)
        present = event.dip in self.dip_pools.pool(vip, old_version).slots
        if present == (event.kind is UpdateKind.ADD):
            # The stream and the pool disagree (an earlier update of this
            # DIP was dropped on version exhaustion): an ADD of a member, or
            # a REMOVE/DRAIN/WEIGHT of a non-member, has nothing to change.
            self._m_stale_updates.value += 1.0
            if self.recorder is not None:
                self.recorder.record(
                    now, UPDATE_STALE, None,
                    str(vip), event.kind.name.lower(), str(event.dip),
                )
            return
        try:
            if event.kind is UpdateKind.REMOVE or event.kind is UpdateKind.DRAIN:
                new_version = self.dip_pools.remove_dip(vip, event.dip)
            elif event.kind is UpdateKind.WEIGHT:
                new_version = self.dip_pools.set_weight(vip, event.dip, event.weight)
                if new_version == old_version:
                    # Weight already matches: nothing transitions.
                    return
            else:
                new_version = self.dip_pools.add_dip(vip, event.dip)
        except VersionsExhausted:
            self._m_version_exhaustion_events.value += 1.0
            if self.recorder is not None:
                self.recorder.record(now, UPDATE_VERSION_EXHAUSTED, None, str(vip))
            return
        if self.recorder is not None:
            self.recorder.record(
                now, UPDATE_T_EXEC, None,
                str(vip), event.kind.name.lower(), str(event.dip),
                old_version, new_version,
            )
        if event.kind is UpdateKind.REMOVE:
            self._break_connections_on(vip, event.dip)
        if self.config.use_transit_table:
            self.vip_table.begin_transition(vip, new_version)
            # Marked pending connections keep the old version via the
            # filter.  Un-marked, un-installed connections can only be
            # slow-path overflow (a full ConnTable): from now on their
            # packets miss ConnTable and consult the filter like any other
            # miss — usually re-hashing to the new version.
            for key in self._pending_by_vip.get(vip, set()):
                state = self._states.get(key)
                if state is None or state.dead or state.installed or state.marked:
                    continue
                key_hash = state.conn.key_hash
                query = self.transit.check(key, key_hash)
                use_version = old_version if query.positive else new_version
                dip = self.dip_pools.select(vip, use_version, key, key_hash)
                state.remapped = True
                self._set_decision(state, dip, now)
        else:
            self.vip_table.set_version(vip, new_version)
            self._remap_pending(vip, new_version, now)

    def _finish_update(self, vip: VirtualIP) -> None:
        now = self.queue.now
        if self.recorder is not None:
            self.recorder.record(now, UPDATE_T_FINISH, None, str(vip))
        # A weight no-op (or a version-exhausted execute) never began a
        # transition: there is no old version to drop, but the update's
        # marks still evict and the pending-state flags still clear.
        if self.vip_table.lookup(vip).in_transition:
            self.vip_table.end_transition(vip)
        # Evict exactly this update's marks: overlapping updates of other
        # VIPs keep theirs, but no stale bit outlives its own update.
        self.transit.update_finished(self._transit_update_ids.pop(vip))
        # Pending connections lose their old-version protection when the
        # filter clears: conns that adopted the old version through a Bloom
        # false positive, and marked conns a step-2 watchdog force-finished
        # past (at-risk).  Their next packets miss ConnTable and take the
        # (new) current version.
        entry = self.vip_table.lookup(vip)
        for key in list(self._pending_by_vip.get(vip, ())):
            state = self._states.get(key)
            if state is None or state.dead:
                continue
            if state.adopted_old_via_fp:
                state.adopted_old_via_fp = False
            elif state.at_risk and state.marked and not state.installed:
                # The mark just got evicted with the rest of this update's.
                state.marked = False
            else:
                continue
            dip = self.dip_pools.select(
                vip, entry.current_version, key, state.conn.key_hash
            )
            state.remapped = True
            self._set_decision(state, dip, now)

    def _remap_pending(self, vip: VirtualIP, new_version: int, now: float) -> None:
        """No-TransitTable mode: pending connections re-hash immediately."""
        for key in list(self._pending_by_vip.get(vip, ())):
            state = self._states.get(key)
            if state is None or state.dead:
                continue
            dip = self.dip_pools.select(vip, new_version, key, state.conn.key_hash)
            state.remapped = True
            self._set_decision(state, dip, now)

    # ------------------------------------------------------------------
    # Coordinator plumbing
    # ------------------------------------------------------------------

    def _pending_keys_of(self, vip: VirtualIP) -> Set[bytes]:
        """Pending connections an update must wait for.

        Slow-path overflow connections are excluded: they will never
        install, so waiting for them would stall every future update.
        """
        return {
            key
            for key in self._pending_by_vip.get(vip, set())
            if not self._states[key].overflowed
        }

    def _transit_update_started(self, vip: VirtualIP) -> None:
        """Step 1 begins for ``vip``: reserve a TransitTable update id so
        the update's marks can be evicted precisely at its own step 3."""
        self._transit_update_ids[vip] = self.transit.update_started()
        if self.recorder is not None:
            self.recorder.record(
                self.queue.now, UPDATE_T_REQ, None,
                str(vip), self._transit_update_ids[vip],
            )

    def _mark_transit(self, key: bytes) -> None:
        # note_new_pending runs only after _admit stored the state.
        state = self._states[key]
        self.transit.mark(key, state.conn.key_hash, self._transit_update_ids[state.conn.vip])

    def _on_at_risk(self, vip: VirtualIP, keys: Set[bytes], phase: Phase) -> None:
        """A watchdog force-advanced past ``keys``: their protection window
        closed early, so any PCC break they suffer is a predicted fault
        outcome, not a model bug."""
        self._m_at_risk_connections.value += len(keys)
        self.at_risk_keys.update(keys)
        recorder = self.recorder
        if recorder is not None:
            now = self.queue.now
            recorder.record(
                now, UPDATE_WATCHDOG_FORCED, None, str(vip), phase.name, len(keys)
            )
            for key in sorted(keys):
                recorder.record(now, CONN_AT_RISK, key, str(vip), phase.name)
        for key in keys:
            state = self._states.get(key)
            if state is not None:
                state.at_risk = True

    # ------------------------------------------------------------------
    # Slow-path failure handling (see repro.faults and docs/robustness.md)
    # ------------------------------------------------------------------

    def _deliver_batch(self, batch: LearnBatch) -> None:
        """Hand a learning-filter batch to the CPU — the notification hop
        fault injection targets (loss and delay)."""
        recorder = self.recorder
        if self._drop_notifications > 0:
            self._drop_notifications -= 1
            self._m_notifications_lost.value += 1.0
            if recorder is not None:
                recorder.record(
                    self.queue.now, SLOWPATH_BATCH_LOST, None,
                    len(batch.events), batch.reason,
                )
            for event in batch.events:
                self._wait(event.key, event.metadata)
            self._reoffer()
            return
        if self._delay_notifications > 0:
            self._delay_notifications -= 1
            self._m_notifications_delayed.value += 1.0
            if recorder is not None:
                recorder.record(
                    self.queue.now, SLOWPATH_BATCH_DELAYED, None,
                    len(batch.events), self._notification_delay_s,
                )
            self.queue.schedule_in(
                self._notification_delay_s,
                lambda: self.cpu.submit_batch(batch),
                PRIO_INTERNAL,
            )
            return
        if recorder is not None:
            recorder.record(
                self.queue.now, SLOWPATH_BATCH_DELIVERED, None,
                len(batch.events), batch.reason,
            )
        self.cpu.submit_batch(batch)

    def _on_job_dropped(self, key: bytes, metadata: Tuple, reason: str) -> None:
        """A slow-path job was shed, lost to a crash, or failed its write:
        the connection is still unmatched in the data plane, so it waits
        to be re-learned."""
        if self.recorder is not None:
            self.recorder.record(self.queue.now, _JOB_DROPPED[reason], key)
        self._wait(key, metadata)
        if reason != "install_failed":
            self._reoffer()
        elif key in self._waiting and self._relearn_handle is None:
            # The bus failed every retry: re-offering now would most likely
            # fail again, a re-learn storm under a long write-fault window.
            # The key waits (see RELEARN_BACKOFF_S).
            backoff = self._relearn_backoff_s
            self._relearn_backoff_s = min(2.0 * backoff, RELEARN_BACKOFF_MAX_S)
            self._relearn_handle = self.queue.schedule(
                self.queue.now + backoff, self._relearn_fire, PRIO_INTERNAL
            )

    def _relearn_fire(self) -> None:
        self._relearn_handle = None
        self._reoffer()

    def _wait(self, key: bytes, metadata: Tuple) -> None:
        state = self._states.get(key)
        if state is None or state.dead or state.installed or state.overflowed:
            return
        self._waiting[key] = metadata

    def _reoffer(self) -> None:
        """Re-learn waiting keys, oldest first, while the CPU is up and has
        room: its backlog plus the learning filter's occupancy stays under
        ``cpu_max_backlog`` (no limit when that is unset).  The filter's
        own timeout then models the connection's next packet."""
        waiting = self._waiting
        cpu = self.cpu
        limit = cpu.max_backlog
        learning = self.learning
        while waiting and not cpu.down and (
            limit is None or cpu.backlog + learning.occupancy < limit
        ):
            key = next(iter(waiting))
            metadata = waiting.pop(key)
            now = self.queue.now
            self._m_relearns.value += 1.0
            if self.recorder is not None:
                self.recorder.record(now, SLOWPATH_RELEARN, key)
            batch = learning.offer(
                key, now, metadata, self._states[key].conn.key_hash
            )
            if batch is not None:
                self._cancel_poll()
                self._deliver_batch(batch)
        self._arm_poll()

    def _on_cpu_restart(self) -> None:
        """The crashed CPU came back: waiting keys flow to it again."""
        if self.recorder is not None:
            self.recorder.record(self.queue.now, SLOWPATH_CPU_RESTART)
        self._relearn_backoff_s = RELEARN_BACKOFF_S
        self._reoffer()

    # -- fault-injection surface (used by repro.faults.FaultInjector) ----

    def inject_cpu_crash(self, restart_delay_s: float) -> int:
        """Crash the switch CPU; returns the number of jobs lost."""
        lost = self.cpu.crash(restart_delay_s)
        if self.recorder is not None:
            self.recorder.record(
                self.queue.now, SLOWPATH_CPU_CRASH, None, lost, restart_delay_s
            )
        return lost

    def inject_cpu_stall(self, duration_s: float) -> None:
        """Freeze the switch CPU for ``duration_s``."""
        if self.recorder is not None:
            self.recorder.record(
                self.queue.now, SLOWPATH_CPU_STALL, None, duration_s
            )
        self.cpu.stall(duration_s)

    def set_write_fault(self, fault: Optional[Callable[[bytes], bool]]) -> None:
        """Install (or clear) the per-install PCI-E write-fault hook."""
        self.cpu.write_fault = fault

    def drop_notifications(self, count: int = 1) -> None:
        """Lose the next ``count`` learning-filter notifications."""
        self._drop_notifications += count

    def delay_notifications(self, count: int, delay_s: float) -> None:
        """Deliver the next ``count`` learning-filter batches late."""
        self._delay_notifications += count
        self._notification_delay_s = delay_s

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------

    def _set_decision(self, state: _ConnState, dip: DirectIP, now: float) -> None:
        old = state.current_dip
        if old == dip:
            return
        conn = state.conn
        if old is not None:  # a first decision has nothing to drop
            bucket = self._conns_on.get((conn.vip, old))
            if bucket is not None:
                bucket.discard(conn.key)
        state.current_dip = dip
        bucket = self._conns_on.get((conn.vip, dip))
        if bucket is None:
            bucket = self._conns_on[(conn.vip, dip)] = set()
        bucket.add(conn.key)
        # ``conn.active_at(now) or now <= conn.start``, with no call.
        if now <= conn.start or now < conn.start + conn.duration:
            conn.record_decision(now, dip)

    def _break_connections_on(self, vip: VirtualIP, dip: DirectIP) -> None:
        """The server behind ``dip`` is going down: connections currently
        mapped to it break regardless of what the load balancer does."""
        for key in self._conns_on.get((vip, dip), set()):
            state = self._states.get(key)
            if state is not None and not state.dead:
                state.conn.broken_by_removal = True

    # ------------------------------------------------------------------
    # Learning-filter timeout polling
    # ------------------------------------------------------------------

    def _arm_poll(self) -> None:
        """Arm the timeout poll if events pend and none is armed (every
        path that offers into the filter ends here or arms inline)."""
        if self._poll_handle is not None:
            return
        deadline = self.learning.next_deadline()
        if deadline is not None:  # a bound method: a closure cost an allocation
            self._poll_handle = self.queue.schedule(
                deadline, self._poll_fire, PRIO_INTERNAL
            )

    def _poll_fire(self) -> None:
        self._poll_handle = None
        batch = self.learning.poll(self.queue.now)
        if batch is not None:  # a re-offer during delivery arms its own poll
            self._deliver_batch(batch)
        else:
            self._arm_poll()

    def _cancel_poll(self) -> None:
        if self._poll_handle is not None:
            self._poll_handle.cancel()
            self._poll_handle = None

    # ------------------------------------------------------------------
    # Simulation wiring and reporting
    # ------------------------------------------------------------------

    def bind(self, queue: EventQueue) -> None:
        super().bind(queue)
        self.cpu = SwitchCpu(
            queue,
            insertion_rate_per_s=self.config.insertion_rate_per_s,
            on_installed=self._on_installed,
            metrics=self._cpu_metrics,
            max_backlog=self.config.cpu_max_backlog,
            retry_limit=INSTALL_RETRY_LIMIT,
            retry_backoff_s=INSTALL_RETRY_BACKOFF_S,
        )
        self.cpu.on_dropped = self._on_job_dropped
        self.cpu.on_restart = self._on_cpu_restart

    def attach_recorder(self, recorder: Optional[FlightRecorder]) -> None:
        """Attach (or detach, with ``None``) a flight recorder.

        Safe at any point — record sites read ``self.recorder`` on every
        event, so a recorder attached between construction and the run
        captures the whole simulation.
        """
        self.recorder = recorder

    def pending_connections(self) -> int:
        return sum(len(keys) for keys in self._pending_by_vip.values())

    def sram_bytes(self, ipv6: Optional[bool] = None) -> int:
        """Total SRAM the SilkRoad tables occupy on this switch."""
        if ipv6 is None:
            ipv6 = any(vip.v6 for vip in self.vip_table.vips())
        return (
            self.conn_table.sram_bytes
            + self.dip_pools.sram_bytes(ipv6)
            + vip_entry(ipv6, self.config).bytes_for(len(self.vip_table))
            + self.transit.size_bytes
            + self.meters.sram_bytes
        )

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Machine-readable dump: every metric and every retained update
        record as a span.  The shape matches what ``python -m repro.cli
        pcc --format json`` emits per switch."""
        extra: Dict[str, object] = {"switch": self.name}
        if self.recorder is not None:
            extra["recorder"] = self.recorder.summary()
        return telemetry_to_dict(self.metrics, self.coordinator.timings, extra=extra)


for _name in _COUNTERS:
    _read = attrgetter(f"_m_{_name}.value")
    setattr(SilkRoadSwitch, _name, property(lambda self, read=_read: int(read(self))))
del _name, _read
