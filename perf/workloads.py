"""The six workloads.

Each workload is a class with ``setup()`` (build the inputs from the seed
— timed by the harness as ``setup_s``) and ``rep(tracer)`` (one timed
repetition plus its output checks).  The program under test receives only
the generated inputs, never the seed's meaning or the workload's name.

Shapes are fixed by the benchmark's definition (see ``perf/README.md``
for why each exists); ``size="tiny"`` shrinks them ~35x for the test
suite.  The harness tunes repetitions, never shapes.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.experiments import common
from repro.netsim.flows import CACHE, HADOOP
from repro.obs import DEFAULT_RING_SIZE, FlightRecorder, Histogram, TimelineSampler

from . import serve_load
from .calibrate import Kernel
from .trace import Tracer

#: (scale multiplier, horizon) applied by ``size="tiny"``.
_TINY_SCALE = 0.1
_TINY_HORIZON_S = 20.0


@dataclass
class Rep:
    """Outcome of one repetition."""

    connections: int
    #: wall seconds of the timed section, yardstick chunks included (what
    #: the harness budgets ``--seconds`` with).
    timed_s: float
    #: the wall seconds ``conns_per_s`` divides by: the timed section less
    #: the yardstick for replays, the ``/advance`` round trips for serve.
    work_s: float
    #: yardstick sampled inside the timed section: (chunk seconds, chunks).
    cal: Tuple[float, int]
    fingerprint: str
    pcc_violations: int
    unattributed: int
    #: failed output checks, human-readable; empty = the rep is correct.
    failures: List[str] = field(default_factory=list)
    sim_update_s_p50: float = 0.0
    #: exact-repeat count/ratio layer metrics read after the rep.
    counts: Dict[str, float] = field(default_factory=dict)
    #: client-observed latency of every non-``/advance`` control call,
    #: in call order, as ``(kind, seconds)`` with kind "read" or "write"
    #: (serve only; the sequence is the same in every repetition).
    ctl: List[Tuple[str, float]] = field(default_factory=list)


def _registry_sum(registry, suffix: str) -> float:
    """Sum of every scalar instrument called ``suffix`` (bare on a single
    switch, ``inst.swNgM.``-prefixed per instance on a fleet)."""
    total = 0.0
    dotted = "." + suffix
    for name, instrument in registry.instruments():
        if (name == suffix or name.endswith(dotted)) and not isinstance(
            instrument, Histogram
        ):
            total += float(instrument.value)
    return total


def _p50(registry, name: str) -> float:
    histogram = registry.get(name)
    if histogram is None or histogram.count == 0:
        return 0.0
    return histogram.percentile(0.5)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _registry_counts(registry, connections: int, events_fired: int) -> Dict[str, float]:
    s = lambda suffix: _registry_sum(registry, suffix)  # noqa: E731
    return {
        "netsim.events.fired_per_conn": _ratio(events_fired, connections),
        "core.conn_table.moves_per_insert": _ratio(
            s("conn_table.cuckoo_moves_total"), s("conn_table.inserts_total")
        ),
        "core.conn_table.fp_lookups": s("conn_table.lookup_false_positives_total"),
        "core.conn_table.table_full_events": s("switch.table_full_events"),
        "asicsim.learning_filter.events_per_batch": _ratio(
            s("learning_filter.events_offered_total"), s("switch_cpu.batches_total")
        ),
        "core.transit_table.marks": s("transit_table.marks_total"),
        "core.transit_table.checks": s("transit_table.checks_total"),
        "core.transit_table.fp_ratio": _ratio(
            s("transit_table.false_positives_total"), s("transit_table.checks_total")
        ),
        "core.pcc_update.updates_queued": s("update.updates_queued_total"),
    }


def _switch_unattributed(lb, conns) -> int:
    """PCC violations outside the switch's predicted-exposure sets, plus
    drops (a single switch never blackholes, so any drop is unexplained)."""
    predicted = lb.at_risk_keys | lb.overflow_keys | lb.fp_adopted_keys
    return sum(
        1
        for c in conns
        if (c.pcc_violated and c.key not in predicted) or c.ever_dropped
    )


#: Simulated seconds between yardstick chunks, and their event priority
#: (after every simulator priority and the timeline sampler's 10).
PACE_PERIOD_S = 0.5
_PACE_PRIORITY = 11


class Pace:
    """Runs one yardstick chunk (``calibrate.Kernel``) at fixed simulated
    instants *inside* a repetition, so that the program and the yardstick
    sample the same machine at ~10 ms granularity.

    The ticks are ordinary events on the run's public ``EventQueue`` (the
    mechanism ``TimelineSampler`` uses), scheduled from the benchmark's
    own ``replay(attach=...)`` hook; they touch no simulator state.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.cal_s = 0.0
        self.chunks = 0

    def tick(self) -> None:
        self.cal_s += self.kernel.chunk()
        self.chunks += 1

    def attach(self, queue, horizon_s: float) -> None:
        for k in range(int(horizon_s / PACE_PERIOD_S) + 1):
            queue.schedule(k * PACE_PERIOD_S, self.tick, _PACE_PRIORITY)


def _reading(pace: Optional[Pace]) -> Tuple[float, int]:
    """``(chunk seconds, chunks)`` of a repetition's yardstick."""
    return (pace.cal_s, pace.chunks) if pace is not None else (0.0, 0)


class PacedWorkload(common.PccWorkload):
    """A ``PccWorkload`` whose every replay also arms a :class:`Pace`
    (``self.pace``, set by the caller before each replay; ``None`` arms
    nothing).  Passing it to ``run_fleet(workload=...)`` is how the fleet
    run gets its yardstick."""

    pace: Optional[Pace] = None

    @classmethod
    def of(cls, w: common.PccWorkload) -> "PacedWorkload":
        return cls(
            cluster=w.cluster,
            connections=w.connections,
            updates=w.updates,
            horizon_s=w.horizon_s,
            updates_per_min=w.updates_per_min,
        )

    def replay(self, lb_factory, faults=None, attach=None, **kwargs):
        def arm(sim, lb) -> None:
            if attach is not None:
                attach(sim, lb)
            if self.pace is not None:
                self.pace.attach(sim.queue, self.horizon_s)

        return super().replay(lb_factory, faults=faults, attach=arm, **kwargs)


class Workload:
    """Base: seeded inputs + one repetition."""

    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.tiny = size == "tiny"
        #: yardstick run inside untraced repetitions; a traced repetition
        #: (``rep(tracer)``) runs without, so no chunk lands in a span.
        self.kernel = Kernel()

    def _pace(self, tracer: Optional[Tracer]) -> Optional[Pace]:
        return Pace(self.kernel) if tracer is None else None

    def _shape(self, scale: float, horizon_s: float):
        if self.tiny:
            return scale * _TINY_SCALE, _TINY_HORIZON_S
        return scale, horizon_s

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, tracer: Optional[Tracer] = None) -> Rep:
        raise NotImplementedError

    def extras(self, base: Rep) -> Tuple[Dict[str, float], List[str]]:
        """Workload-specific ratio metrics of a traced run against the
        untraced repetition ``base``, and the checks they failed."""
        return {}, []


class _SwitchReplay(Workload):
    """One ``SilkRoadSwitch`` replaying a ``build_workload`` trace through
    ``PccWorkload.replay`` with its default driver."""

    updates_per_min = 50.0
    scale = 0.5
    horizon_s = 120.0
    duration_model = HADOOP  # build_workload's default

    def config(self):
        return api.SilkRoadConfig(conn_table_capacity=300_000)

    def attach(self):
        """The ``replay(attach=...)`` hook, or ``None``."""
        return None

    def setup(self) -> None:
        scale, horizon_s = self._shape(self.scale, self.horizon_s)
        self.workload = PacedWorkload.of(
            common.build_workload(
                self.updates_per_min,
                scale=scale,
                seed=self.seed,
                horizon_s=horizon_s,
                duration_model=self.duration_model,
            )
        )
        self.cfg = self.config()
        # System construction + VIP announce are part of set-up cost even
        # though replay() repeats them per rep on a fresh switch.
        switch = api.SilkRoadSwitch(self.cfg)
        for service in self.workload.cluster.services:
            switch.announce_vip(service.vip, service.dips)

    def rep(self, tracer: Optional[Tracer] = None, **replay_kwargs) -> Rep:
        cfg = self.cfg
        self._recorder = None
        pace = self.workload.pace = self._pace(tracer)
        start = time.perf_counter()
        report, conns, lb = self.workload.replay(
            lambda: api.SilkRoadSwitch(cfg), attach=self.attach(), **replay_kwargs
        )
        timed_s = time.perf_counter() - start
        cal = _reading(pace)
        audit = api.audit_switch(lb, conns)
        failures = [f"audit: {v}" for v in audit.violations]
        unattributed = _switch_unattributed(lb, conns)
        if unattributed:
            failures.append(f"{unattributed} unattributed violations/drops")
        registry = lb.metrics
        counts = _registry_counts(registry, len(conns), lb.queue.processed - cal[1])
        counts["core.pcc_update.step1_s_p50"] = _p50(registry, "update.step1_duration_s")
        counts["core.pcc_update.step2_s_p50"] = _p50(registry, "update.step2_duration_s")
        if self._recorder is not None:
            counts["obs.recorder.dropped"] = float(self._recorder.total_dropped)
        failures.extend(self.check(report, lb))
        return Rep(
            connections=len(conns),
            timed_s=timed_s,
            work_s=timed_s - cal[0],
            cal=cal,
            fingerprint=registry.fingerprint(),
            pcc_violations=report.pcc_violations,
            unattributed=unattributed,
            failures=failures,
            sim_update_s_p50=_p50(registry, "update.update_duration_s"),
            counts=counts,
        )

    def check(self, report, lb) -> List[str]:
        """Workload-specific output checks; returns failure messages."""
        return []


class PopSteady(_SwitchReplay):
    name = "pop_steady"

    def extras(self, base: Rep) -> Tuple[Dict[str, float], List[str]]:
        """Scalar oracle over the default driver, same inputs, with a
        fingerprint-equality check.  Skipped (0, with a note) should the
        driver switch ever disappear from ``PccWorkload.replay``."""
        if "batched" not in inspect.signature(common.PccWorkload.replay).parameters:
            print("note: PccWorkload.replay has no driver switch; scalar leg skipped")
            return {}, []
        scalar = self.rep(batched=False)
        failures = [f"scalar leg: {f}" for f in scalar.failures]
        if scalar.fingerprint != base.fingerprint:
            failures.append("scalar driver fingerprint != default driver's")
        ratio = scalar.work_s / base.work_s
        return {"netsim.driver.scalar_over_default": ratio}, failures


class PopSteadyObs(_SwitchReplay):
    name = "pop_steady_obs"

    def attach(self):
        def arm(sim, lb) -> None:
            self._recorder = FlightRecorder(DEFAULT_RING_SIZE)
            lb.attach_recorder(self._recorder)
            TimelineSampler(lb.metrics, 5.0).attach(
                sim.queue, horizon_s=self.workload.horizon_s
            )

        return arm


class SlowCpuUpdates(_SwitchReplay):
    name = "slow_cpu_updates"
    updates_per_min = 60.0
    horizon_s = 90.0

    def config(self):
        # version_reuse=False sidesteps a model hazard found while sizing
        # (README "Hazards"): with reuse on, a connection that adopted the
        # old version through a Bloom false positive can sit on a slot a
        # later ADD substitutes, and audit_switch then fails structurally
        # on about half of all seeds.
        return api.SilkRoadConfig(
            conn_table_capacity=300_000,
            insertion_rate_per_s=230.0,
            learning_filter_timeout_s=5e-3,
            transit_table_bytes=1024,
            version_reuse=False,
        )

    def check(self, report, lb) -> List[str]:
        if lb.version_exhaustion_events:
            return [f"{lb.version_exhaustion_events} version-exhaustion events"]
        return []


class FullTable(_SwitchReplay):
    name = "full_table"
    updates_per_min = 10.0
    duration_model = CACHE

    def config(self):
        capacity = 24_000
        if self.tiny:
            capacity = 680  # keeps the table ~0.98 full at tiny scale
        return api.SilkRoadConfig(
            conn_table_capacity=capacity, overflow_to_software=True
        )

    def check(self, report, lb) -> List[str]:
        # Overflowed connections are pinned in software, so PCC must hold.
        if report.pcc_violations:
            return [f"{report.pcc_violations} PCC violations with overflow pinning"]
        return []


class FleetMixed(Workload):
    name = "fleet_mixed"
    num_switches = 8
    #: ``run_fleet``'s own defaults, spelled out because the workload is
    #: prebuilt here and the partitioned leg rebuilds it from these knobs.
    updates_per_min = 60.0
    warmup_s = 2.0
    #: The fault schedule is part of the workload's shape, not of the
    #: seeded traffic: left to follow the seed, the number of crashes
    #: (1-8) moves ``peak_rss_mb`` by 25 % and ``conns_per_s`` with it.
    #: This is the plan ``run_fleet`` derives for the default seed 16.
    fault_seed = 2016

    def _knobs(self) -> Dict[str, object]:
        scale, horizon_s = self._shape(0.4, 120.0)
        return dict(
            seed=self.seed,
            fault_seed=self.fault_seed,
            pattern="mixed",
            num_switches=self.num_switches,
            scale=scale,
            horizon_s=horizon_s,
            faults_per_min=4.0,
        )

    def setup(self) -> None:
        knobs = self._knobs()
        self.workload = PacedWorkload.of(
            common.build_workload(
                self.updates_per_min,
                scale=knobs["scale"],
                seed=self.seed,
                horizon_s=knobs["horizon_s"],
                warmup_s=self.warmup_s,
            )
        )
        fleet = api.FleetSilkRoad(
            num_switches=self.num_switches,
            config=api.SilkRoadConfig(conn_table_capacity=200_000),  # run_fleet's
        )
        for service in self.workload.cluster.services:
            fleet.announce_vip(service.vip, service.dips)

    def rep(self, tracer: Optional[Tracer] = None) -> Rep:
        pace = self.workload.pace = self._pace(tracer)
        start = time.perf_counter()
        result = api.run_fleet(workload=self.workload, **self._knobs())
        timed_s = time.perf_counter() - start
        cal = _reading(pace)
        audit = result.audit
        failures = [f"audit: {v}" for v in audit.audit.violations]
        if not audit.ok and not failures:
            failures.append(str(audit))
        fleet = result.fleet
        connections = len(result.connections)
        counts = _registry_counts(
            fleet.merged_registry(), connections, fleet.queue.processed - cal[1]
        )
        stats = fleet.report()
        counts["deploy.fleet.rehomed"] = stats["handoffs"]
        counts["deploy.fleet.blackholed"] = (
            stats["blackholed_arrivals"] + stats["blackholed_existing"]
        )
        return Rep(
            connections=connections,
            timed_s=timed_s,
            work_s=timed_s - cal[0],
            cal=cal,
            fingerprint=result.fingerprint,
            pcc_violations=result.report.pcc_violations,
            unattributed=audit.unattributed_violations + audit.unattributed_drops,
            failures=failures,
            counts=counts,
        )

    def extras(self, base: Rep) -> Tuple[Dict[str, float], List[str]]:
        """The space-partitioned runner with one in-process partition over
        the serial runner.  Spawned pools are deliberately not benchmarked
        on a 2-core shared box."""
        start = time.perf_counter()
        result = api.run_fleet_partitioned(
            partition_workers=1,
            updates_per_min=self.updates_per_min,
            warmup_s=self.warmup_s,
            **self._knobs(),
        )
        elapsed = time.perf_counter() - start
        failures = []
        if result.fingerprint != base.fingerprint:
            failures.append("partitioned fingerprint != serial run_fleet's")
        if not result.ok:
            failures.append("partitioned leg: audit failed")
        ratio = elapsed / base.work_s
        return {"experiments.parallel.partition1_over_serial": ratio}, failures


class ServeMigration(Workload):
    name = "serve_migration"

    def _config(self):
        scale = 0.5 * (_TINY_SCALE if self.tiny else 1.0)
        return api.ServeConfig(seed=self.seed, scale=scale, spares_per_vip=16)

    @property
    def cycles(self) -> int:
        return 20 if self.tiny else 240

    def setup(self) -> None:
        asyncio.run(serve_load.boot_and_close(self._config()))

    def rep(self, tracer: Optional[Tracer] = None) -> Rep:
        run = asyncio.run(
            serve_load.run_migration(
                self._config(),
                self.cycles,
                tracer=tracer,
                kernel=self.kernel if tracer is None else None,
            )
        )
        report = run.report
        failures = list(run.failures)
        if not report.get("audit_ok"):
            failures.append(f"shutdown audit: {report.get('audit_detail')}")
        unattributed = int(report.get("unattributed_violations", 0))
        if unattributed:
            failures.append(f"{unattributed} unattributed violations")
        connections = int(report.get("total_connections", 0))
        registry = run.registry
        return Rep(
            connections=connections,
            timed_s=run.timed_s,
            work_s=run.advance_s,
            cal=run.cal,
            fingerprint=str(report.get("fingerprint", "")),
            pcc_violations=int(report.get("pcc_violations", 0)),
            unattributed=unattributed,
            failures=failures,
            counts=_registry_counts(registry, connections, run.events_fired),
            ctl=run.ctl,
        )


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        PopSteady,
        PopSteadyObs,
        SlowCpuUpdates,
        FullTable,
        FleetMixed,
        ServeMigration,
    )
}
