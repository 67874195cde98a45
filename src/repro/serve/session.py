"""The serving-mode session: one long-lived switch (or fleet) plus the
operations the control API exposes against it.

:class:`ServeSession` owns a :class:`~repro.core.silkroad.SilkRoadSwitch`
(``num_switches == 1``) or a :class:`~repro.deploy.fleet.FleetSilkRoad`,
driven by the replay loop of
:class:`~repro.netsim.batchsim.BatchedFlowSimulator`, and a
:class:`~repro.serve.source.StreamingFlowSource` feeding it.  Time moves
only through :meth:`advance`; every mutation (:meth:`add_dip`,
:meth:`drain_dip`, :meth:`remove_dip`, :meth:`set_weight`,
:meth:`reassign`) executes at the quiescent ``queue.now`` between
advances and maps onto the existing PCC-safe machinery — the 3-step
update coordinator for pool changes, the fleet's announce→drain→redirect
for reassignment.  The session adds *no* second consistency mechanism.

Mutations raise :class:`ApiError` with an HTTP status and a machine
``code``; the HTTP layer (:mod:`repro.serve.http`) renders them as
structured 4xx bodies.  All methods are synchronous and must be called
serially (the HTTP layer holds a lock): determinism comes from the fact
that a serial script of calls against the virtual clock is a total order
of state transitions over seeded RNG draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core import SilkRoadConfig, SilkRoadSwitch
from ..core.verify import audit_switch
from ..deploy.fleet import FleetSilkRoad, audit_fleet
from ..experiments.common import (
    BASE_DIPS_PER_VIP,
    BASE_NEW_CONNS_PER_MIN,
    BASE_VIPS,
)
from ..netsim.cluster import make_cluster, spare_pool
from ..netsim.arrivals import uniform_vip_workloads
from ..netsim.batchsim import BatchedFlowSimulator
from ..netsim.flows import Connection
from ..netsim.packet import DirectIP, VirtualIP
from ..netsim.updates import RootCause, UpdateEvent, UpdateKind
from ..obs import ObsHook
from ..obs.export import iter_jsonl, to_prometheus_text
from ..options import ObsOptions
from .source import StreamingFlowSource


#: Longest single ``advance``.  The call runs inside the control server's
#: dispatch lock, so an unbounded ``dt`` would freeze every route
#: (``/healthz`` included) for as long as the simulation takes.
MAX_ADVANCE_S = 3600.0

#: Horizon the chaos fault plan (and the optional timeline sampler) covers.
PLAN_HORIZON_S = 600.0

#: Fleet sessions announce each VIP on one switch, so ``reassign`` has
#: somewhere to move it.
FLEET_REPLICATION = 1


class ApiError(Exception):
    """A structured control-API failure (rendered as an HTTP 4xx)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_payload(self) -> Dict[str, object]:
        return {
            "error": {
                "status": self.status,
                "code": self.code,
                "message": self.message,
            }
        }


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving session is built from (all seeded)."""

    seed: int = 7
    #: workload scale, as in the experiment runners (VIP count + rate).
    scale: float = 0.05
    #: 1 = single switch; >1 = a heartbeat-managed fleet
    #: (:data:`FLEET_REPLICATION` announcers per VIP).
    num_switches: int = 1
    #: attach the seeded fault injector (fleet kinds on a fleet).
    chaos: bool = False
    faults_per_min: float = 30.0
    spares_per_vip: int = 8
    obs: Optional[ObsOptions] = None
    #: pace time from the wallclock instead of explicit ``/advance``.
    wallclock: bool = False


@dataclass
class _DrainState:
    """Lifecycle of one admin-initiated graceful drain."""

    vip: VirtualIP
    dip: DirectIP
    requested_at: float
    status: str = "draining"  # draining -> drained
    #: t_finish of the DRAIN update (from ``on_finished``; for a fleet,
    #: when the last switch it was handed to finished it).
    update_finished_at: Optional[float] = None
    completed_at: Optional[float] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "vip": str(self.vip),
            "dip": str(self.dip),
            "status": self.status,
            "requested_at": self.requested_at,
            "update_finished_at": self.update_finished_at,
            "completed_at": self.completed_at,
        }


class ServeSession:
    """A long-lived load balancer plus its control-plane operations."""

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        self.config = config
        obs = self.obs = config.obs or ObsOptions()
        sr_config = SilkRoadConfig()

        self.cluster = make_cluster(
            name="serve",
            num_vips=max(int(BASE_VIPS * config.scale), 2),
            dips_per_vip=BASE_DIPS_PER_VIP,
        )
        workloads = uniform_vip_workloads(
            self.cluster.vips, BASE_NEW_CONNS_PER_MIN * config.scale
        )
        self.source = StreamingFlowSource(workloads, seed=config.seed)
        self.is_fleet = config.num_switches > 1
        if self.is_fleet:
            self.lb = FleetSilkRoad(
                num_switches=config.num_switches,
                config=sr_config,
                name="fleet-serve",
                replication=FLEET_REPLICATION,
            )
        else:
            self.lb = SilkRoadSwitch(sr_config, name="silkroad-serve")
        for service in self.cluster.services:
            self.lb.announce_vip(service.vip, service.dips)

        self.injector = None
        if config.chaos:
            from ..faults.injector import FaultInjector
            from ..faults.plan import FLEET_KINDS, SWITCH_KINDS, FaultPlan

            plan = FaultPlan.generate(
                config.seed + 1000,
                horizon_s=PLAN_HORIZON_S,
                faults_per_min=config.faults_per_min,
                kinds=FLEET_KINDS if self.is_fleet else SWITCH_KINDS,
                num_switches=config.num_switches,
            )
            self.injector = FaultInjector(plan)

        #: The replay loop, fed one drawn window per :meth:`advance`; its
        #: queue is the session's clock.  The hook and the injector attach
        #: to it as they do in a replay.
        self.sim = BatchedFlowSimulator(self.lb, faults=self.injector)
        self.queue = self.sim.queue
        hook = ObsHook(obs, "serve", PLAN_HORIZON_S)
        hook(self.sim, self.lb)
        self.recorder = hook.recorder
        self.timeline = hook.timeline
        self.sim.start()

        #: What the shutdown audit can still count: connections not yet
        #: ended, by id, and ended ones whose decision log is not a single
        #: DIP (remapped or dropped).  One that ended on a single DIP is
        #: forgotten — decisions are only recorded while a connection is
        #: active, so it can never be violated or dropped.  The total drawn
        #: is ``source.total_generated``.
        self.live_connections: Dict[int, Connection] = {}
        self.ended_broken: List[Connection] = []
        self._vips: Dict[str, VirtualIP] = {
            str(s.vip): s.vip for s in self.cluster.services
        }
        #: every DIP the session has ever known, by rendered address.
        self._dips: Dict[str, DirectIP] = {}
        self._dip_vip: Dict[DirectIP, VirtualIP] = {}
        for service in self.cluster.services:
            for dip in service.dips:
                self._dips[str(dip)] = dip
                self._dip_vip[dip] = service.vip
        self._spares = spare_pool(self.cluster, spares_per_vip=config.spares_per_vip)
        self._drains: Dict[DirectIP, _DrainState] = {}
        self.advances = 0
        self.mutations = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _vip(self, vip_str: str) -> VirtualIP:
        vip = self._vips.get(vip_str)
        if vip is None:
            raise ApiError(404, "unknown_vip", f"VIP not announced: {vip_str}")
        return vip

    def _dip(self, dip_str: str) -> DirectIP:
        dip = self._dips.get(dip_str)
        if dip is None:
            raise ApiError(404, "unknown_dip", f"unknown DIP: {dip_str}")
        return dip

    def _check_open(self) -> None:
        if self._closed:
            raise ApiError(409, "session_closed", "session already shut down")

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance(self, dt: float) -> Dict[str, object]:
        """Move time forward ``dt`` seconds, streaming arrivals in.

        The drawn window is fed to the replay loop, which runs to the
        window's end exactly as a replay runs to its horizon: arrivals and
        ends merge beside the heap in the scalar ``(time, priority)``
        order.  The connections whose ends it dispatched are forgotten
        unless they are broken.
        """
        self._check_open()
        # bool is an int subclass; NaN fails both comparisons; inf and
        # oversized values fail the upper bound.
        if (
            isinstance(dt, bool)
            or not isinstance(dt, (int, float))
            or not 0 < dt <= MAX_ADVANCE_S
        ):
            raise ApiError(
                400,
                "bad_advance",
                f"dt must be a number of seconds in (0, {MAX_ADVANCE_S:g}]",
            )
        t0 = self.queue.now
        t1 = t0 + float(dt)
        conns = self.source.draw(t0, t1)
        live = self.live_connections
        for conn in conns:
            live[conn.conn_id] = conn
        self.sim.feed(conns)
        for conn in self.sim.run_until(t1):
            del live[conn.conn_id]
            if conn.remapped or conn.ever_dropped:
                self.ended_broken.append(conn)
        self._refresh_drains()
        self.advances += 1
        return {
            "now": self.queue.now,
            "arrivals": len(conns),
            "total_connections": self.source.total_generated,
        }

    def held_connections(self) -> List[Connection]:
        """What the audit can still count: ended broken ones, then live ones."""
        return self.ended_broken + list(self.live_connections.values())

    # ------------------------------------------------------------------
    # Pool mutations (all PCC-safe: they go through apply_update)
    # ------------------------------------------------------------------

    def _submit(
        self,
        vip: VirtualIP,
        kind: UpdateKind,
        dip: DirectIP,
        weight: int = 1,
        on_finished: Optional[Callable] = None,
    ) -> None:
        event = UpdateEvent(
            time=self.queue.now,
            vip=vip,
            kind=kind,
            dip=dip,
            cause=RootCause.UPGRADE,
            weight=weight,
        )
        self.lb.apply_update(event, on_finished=on_finished)
        self.mutations += 1

    def add_dip(
        self, vip_str: str, dip_str: Optional[str] = None
    ) -> Dict[str, object]:
        """Add a backend to a VIP — a spare when no address is given."""
        self._check_open()
        vip = self._vip(vip_str)
        if dip_str is not None:
            try:
                dip = DirectIP.parse(dip_str)
            except (ValueError, KeyError):
                raise ApiError(400, "bad_dip", f"unparseable DIP: {dip_str}")
            owner = self._dip_vip.get(dip)
            if owner is not None and owner != vip:
                raise ApiError(
                    409, "dip_owned", f"{dip_str} belongs to VIP {owner}"
                )
        else:
            spares = self._spares.get(vip, [])
            if not spares:
                raise ApiError(409, "no_spare_dips", f"no spare DIPs for {vip}")
            dip = spares[0]
        if dip in self.lb.current_dips(vip):
            raise ApiError(409, "dip_exists", f"{dip} already in pool of {vip}")
        # Commit only after every check passed.
        if dip_str is None:
            self._spares[vip].pop(0)
        self._dips[str(dip)] = dip
        self._dip_vip[dip] = vip
        self._drains.pop(dip, None)  # a re-added DIP is no longer drained
        self._submit(vip, UpdateKind.ADD, dip)
        return self.vip_state(vip)

    def drain_dip(self, dip_str: str) -> Dict[str, object]:
        """Gracefully drain a backend: new connections stop landing on it;
        pinned connections keep their old pool versions until they end.

        Idempotent: re-draining a draining (or drained) DIP returns its
        current drain record without submitting a second update.
        """
        self._check_open()
        dip = self._dip(dip_str)
        vip = self._dip_vip[dip]
        existing = self._drains.get(dip)
        if existing is not None:
            return existing.to_payload()
        current = self.lb.current_dips(vip)
        if dip not in current:
            raise ApiError(409, "not_in_pool", f"{dip} not in current pool of {vip}")
        if len(current) <= 1:
            raise ApiError(409, "last_dip", f"{dip} is the last DIP of {vip}")
        state = _DrainState(vip=vip, dip=dip, requested_at=self.queue.now)
        self._drains[dip] = state

        def finished(_vip, _timings, state: _DrainState = state) -> None:
            state.update_finished_at = self.queue.now

        self._submit(vip, UpdateKind.DRAIN, dip, on_finished=finished)
        self._refresh_drains()
        return state.to_payload()

    def remove_dip(self, dip_str: str) -> Dict[str, object]:
        """Hard-remove a backend (the server dies: its connections break)."""
        self._check_open()
        dip = self._dip(dip_str)
        vip = self._dip_vip[dip]
        current = self.lb.current_dips(vip)
        if dip not in current:
            raise ApiError(409, "not_in_pool", f"{dip} not in current pool of {vip}")
        if len(current) <= 1:
            raise ApiError(409, "last_dip", f"{dip} is the last DIP of {vip}")
        self._drains.pop(dip, None)
        self._submit(vip, UpdateKind.REMOVE, dip)
        return self.vip_state(vip)

    def set_weight(self, dip_str: str, weight: int) -> Dict[str, object]:
        """Change a backend's share of *new* connections (slot copies)."""
        self._check_open()
        if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
            raise ApiError(400, "bad_weight", "weight must be an integer >= 1")
        if weight > 64:
            raise ApiError(400, "bad_weight", "weight must be <= 64")
        dip = self._dip(dip_str)
        vip = self._dip_vip[dip]
        if dip not in self.lb.current_dips(vip):
            raise ApiError(409, "not_in_pool", f"{dip} not in current pool of {vip}")
        self._submit(vip, UpdateKind.WEIGHT, dip, weight=weight)
        payload = self.vip_state(vip)
        payload["requested_weight"] = weight
        return payload

    def reassign(self, vip_str: str, to_index: int) -> Dict[str, object]:
        """Fleet only: move a VIP announcement onto another switch."""
        self._check_open()
        vip = self._vip(vip_str)
        if not self.is_fleet:
            raise ApiError(
                409, "not_a_fleet", "reassign requires a fleet (num_switches > 1)"
            )
        if not isinstance(to_index, int) or isinstance(to_index, bool):
            raise ApiError(400, "bad_index", "to_index must be an integer")
        if not 0 <= to_index < self.config.num_switches:
            raise ApiError(400, "bad_index", f"no switch {to_index} in the fleet")
        if not self.lb.reassign_vip(vip, to_index):
            raise ApiError(
                409,
                "reassign_refused",
                "reassignment refused (target down/unsynced, VIP shed, "
                "already announced there, or mid-reassignment)",
            )
        return {"vip": str(vip), "to_index": to_index, "started_at": self.queue.now}

    # ------------------------------------------------------------------
    # Drain bookkeeping
    # ------------------------------------------------------------------

    def _refresh_drains(self) -> None:
        """Complete drains whose DIP left the pool and has no live conns."""
        for state in self._drains.values():
            if state.status != "draining":
                continue
            gone = state.dip not in self.lb.current_dips(state.vip)
            if gone and self.lb.live_connections_on(state.vip, state.dip) == 0:
                state.status = "drained"
                state.completed_at = self.queue.now

    def drain_state(self, dip_str: str) -> Dict[str, object]:
        dip = self._dip(dip_str)
        state = self._drains.get(dip)
        if state is None:
            raise ApiError(404, "not_draining", f"{dip} has no drain in progress")
        self._refresh_drains()
        return state.to_payload()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def vip_state(self, vip: VirtualIP) -> Dict[str, object]:
        dips = self.lb.current_dips(vip)
        payload: Dict[str, object] = {
            "vip": str(vip),
            "dips": [str(d) for d in dips],
            "spares_left": len(self._spares.get(vip, [])),
            "draining": [
                str(s.dip)
                for s in self._drains.values()
                if s.vip == vip and s.status == "draining"
            ],
        }
        if self.is_fleet:
            payload["owners"] = self.lb.assigned_switches(vip)
        else:
            payload["weights"] = {str(d): self.lb.dip_weight(vip, d) for d in dips}
            payload["update_phase"] = self.lb.coordinator.phase(vip).value
            payload["queued_updates"] = self.lb.coordinator.queue_depth(vip)
        return payload

    def state(self) -> Dict[str, object]:
        self._refresh_drains()
        return {
            "now": self.queue.now,
            "mode": "fleet" if self.is_fleet else "switch",
            "num_switches": self.config.num_switches,
            "seed": self.config.seed,
            "chaos": self.config.chaos,
            "advances": self.advances,
            "mutations": self.mutations,
            "total_connections": self.source.total_generated,
            "vips": [self.vip_state(vip) for vip in self._vips.values()],
            "drains": [s.to_payload() for s in self._drains.values()],
            "switches": self.lb.switch_status() if self.is_fleet else None,
        }

    def metrics_text(self) -> str:
        registry = self.lb.merged_registry() if self.is_fleet else self.lb.metrics
        return to_prometheus_text(registry)

    def telemetry_records(self):
        """JSONL lines (metrics + finished spans) for artifact dumps.

        The spans are the update records every switch retains, each tagged
        with its switch's name: in fleet mode every instance
        ``merged_registry()`` folds, so the span lines per switch count its
        ``update.updates_completed_total`` in the same dump.
        """
        if self.is_fleet:
            registry = self.lb.merged_registry()
            switches = [switch for _i, _gen, switch in self.lb.instances()]
        else:
            registry, switches = self.lb.metrics, [self.lb]
        spans = (
            {"switch": switch.name, **timing.to_dict()}
            for switch in switches
            for timing in switch.coordinator.timings
        )
        return iter_jsonl(registry, spans)

    def fingerprint(self) -> str:
        if self.is_fleet:
            return self.lb.fingerprint()
        return self.lb.metrics.fingerprint()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> Dict[str, object]:
        """Finalize, audit, fingerprint.  Idempotent; closes the session."""
        if not self._closed:
            self.lb.finalize()
            self._refresh_drains()
            self._closed = True
            held = self.held_connections()
            violations = sum(1 for c in held if c.start >= 0.0 and c.pcc_violated)
            audit = (audit_fleet if self.is_fleet else audit_switch)(self.lb, held)
            self._final_report = {
                "now": self.queue.now,
                "fingerprint": self.fingerprint(),
                "audit_ok": audit.ok,
                "audit_detail": str(audit),
                "pcc_violations": violations,
                "unattributed_violations": audit.unattributed_violations,
                "total_connections": self.source.total_generated,
                "advances": self.advances,
                "mutations": self.mutations,
                "drains": [s.to_payload() for s in self._drains.values()],
            }
        return self._final_report
