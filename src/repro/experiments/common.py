"""Shared experiment scaffolding.

The paper's PCC experiments (§3.2, §6.2) replay a one-hour PoP trace with
149 VIPs and 2.77 M new connections per minute per ToR.  Replaying that in
pure Python would take hours, so every experiment takes a ``scale`` knob:
``scale=1.0`` is a laptop-sized default (tens of thousands of connections
over a couple of minutes) and the knob multiplies both VIP count and
arrival rate towards the paper's operating point.  The reproduction target
is the *shape* of each figure — who wins, by what rough factor, where the
crossovers sit — not Facebook's absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core import SilkRoadConfig, SilkRoadSwitch
from ..netsim.batchsim import BatchedFlowSimulator
from ..netsim import (
    ArrivalGenerator,
    Cluster,
    Connection,
    ConnectionColumns,
    FlowSimulator,
    SimulationReport,
    UpdateEvent,
    UpdateGenerator,
    make_cluster,
    spare_pool,
    uniform_vip_workloads,
)
from ..netsim.flows import DurationModel, HADOOP

#: Baseline laptop-scale workload knobs (scale = 1.0).
BASE_VIPS = 10
BASE_DIPS_PER_VIP = 16
BASE_NEW_CONNS_PER_MIN = 30_000.0
BASE_HORIZON_S = 120.0
BASE_WARMUP_S = 20.0


@dataclass
class PccWorkload:
    """One generated workload, replayable against several systems.

    ``connections`` is the generated window as columns: records exist only
    inside the replay that carries them.
    """

    cluster: Cluster
    connections: ConnectionColumns
    updates: List[UpdateEvent]
    horizon_s: float
    updates_per_min: float

    def replay(
        self,
        lb_factory: Callable[[], object],
        faults: Optional[object] = None,
        attach: Optional[Callable[[FlowSimulator, object], None]] = None,
        batched: bool = True,
        batch_size: int = 256,
    ) -> Tuple[SimulationReport, List[Connection], object]:
        """Run a fresh LB instance over fresh records of the workload.

        Connections carry decision logs, so each replay builds its own
        records from the columns (their base hashes are derived at the
        first replay and shared by every later one); update events are
        immutable and shared.  ``faults`` is an
        optional :class:`~repro.faults.injector.FaultInjector` attached to
        the run.  ``attach``, when given, is called as
        ``attach(sim, lb)`` after the simulator is built but before it
        runs — the hook observability uses to arm a
        :class:`~repro.obs.timeline.TimelineSampler` on the event queue
        and hand the LB a :class:`~repro.obs.recorder.FlightRecorder`.
        ``batched`` selects the chunked-arrival driver
        (:class:`~repro.netsim.batchsim.BatchedFlowSimulator`, the
        default); ``batched=False`` runs the scalar event-at-a-time
        oracle.  This is the one place a driver is chosen: every runner
        replays on the default, and the oracle is for the differential
        tests (tests/asicsim/test_differential.py), which hold the two
        bit-identical.  Returns the report, the replayed connections, and
        the LB instance (for its counters).
        """
        conns = self.connections.records()
        lb = lb_factory()
        for service in self.cluster.services:
            lb.announce_vip(service.vip, service.dips)
        if batched:
            sim = BatchedFlowSimulator(lb, faults=faults, batch_size=batch_size)
        else:
            sim = FlowSimulator(lb, faults=faults)
        if attach is not None:
            attach(sim, lb)
        report = sim.run(conns, self.updates, horizon_s=self.horizon_s)
        return report, conns, lb


def build_workload(
    updates_per_min: float,
    scale: float = 1.0,
    seed: int = 7,
    horizon_s: float = BASE_HORIZON_S,
    warmup_s: float = BASE_WARMUP_S,
    duration_model: DurationModel = HADOOP,
    arrival_scale: float = 1.0,
    num_vips: Optional[int] = None,
) -> PccWorkload:
    """Generate the PoP-style workload used by Figures 5, 16, 17, 18."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    vips = num_vips if num_vips is not None else max(int(BASE_VIPS * scale), 2)
    cluster = make_cluster(
        name="pop-trace",
        num_vips=vips,
        dips_per_vip=BASE_DIPS_PER_VIP,
        duration_model=duration_model,
    )
    generator = ArrivalGenerator(seed=seed)
    connections = generator.generate(
        uniform_vip_workloads(
            cluster.vips,
            BASE_NEW_CONNS_PER_MIN * scale * arrival_scale,
            duration_model=duration_model,
        ),
        horizon_s=horizon_s,
        warmup_s=warmup_s,
    )
    update_gen = UpdateGenerator(seed=seed + 1)
    updates = update_gen.poisson_updates(
        cluster.pools(),
        updates_per_min=updates_per_min,
        horizon_s=horizon_s,
        spare_dips=spare_pool(cluster),
    )
    return PccWorkload(
        cluster=cluster,
        connections=connections,
        updates=updates,
        horizon_s=horizon_s,
        updates_per_min=updates_per_min,
    )


def silkroad_factory(
    use_transit_table: bool = True,
    transit_table_bytes: int = 256,
    learning_timeout_s: float = 1e-3,
    insertion_rate_per_s: float = 200_000.0,
    conn_table_capacity: int = 300_000,
    name: Optional[str] = None,
) -> Callable[[], SilkRoadSwitch]:
    """Factory for the SilkRoad variants the figures compare."""

    if name is None:
        name = "silkroad" if use_transit_table else "silkroad-no-transittable"

    def make() -> SilkRoadSwitch:
        config = SilkRoadConfig(
            conn_table_capacity=conn_table_capacity,
            use_transit_table=use_transit_table,
            transit_table_bytes=transit_table_bytes,
            learning_filter_timeout_s=learning_timeout_s,
            insertion_rate_per_s=insertion_rate_per_s,
        )
        return SilkRoadSwitch(config, name=name)

    return make
