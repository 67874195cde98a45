"""Sharded parallel experiment replay with lossless metric merge.

The paper's evaluation replays hour-long PoP traces; at laptop scale a
single-process replay is the wall-clock bottleneck of the whole harness.
This module splits one seeded experiment into **deterministic shards** —
by (cluster, VIP) slice for the workload replays, by grid cell for the
TransitTable sweep, by derived seed for chaos runs — farms the shards out
to ``spawn``-ed worker processes, and merges the per-shard
:class:`~repro.obs.metrics.MetricRegistry` and
:class:`~repro.core.verify.AuditReport` objects back into one fleet view.

Design invariants, asserted by the test suite:

* **Shard layout is fixed by ``num_shards``**, never by ``workers``: the
  worker count only sizes the process pool.  An N-shard run therefore
  produces bit-identical merged fingerprints whether it ran on 1 or 8
  workers, and repeated runs with the same seeds are bit-identical.
* **Per-shard seeds are derived**, not shared: shard *i* replays with
  ``derive_shard_seed(seed, i)`` (a splitmix64 mix), so shards are
  statistically independent slices of the same experiment, and the union
  is statistically equivalent to — not a permutation of — the unsharded
  run.
* **Merges happen in shard order** (ascending ``shard_id``), so float
  accumulation is reproducible regardless of worker completion order.
* **Workers are expendable**: a crashed or failing shard is retried once
  (fresh process), then reported in ``failed`` without sinking the run.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import multiprocessing.connection
import os
import sys
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..asicsim.hashing import base_hash, mix64
from ..core.silkroad import SilkRoadSwitch
from ..core.verify import AuditReport, audit_switch
from ..obs.metrics import Gauge, Histogram, MetricRegistry
from ..obs.recorder import DEFAULT_RING_SIZE, FlightRecorder
from ..obs.timeline import Timeline, TimelineSampler
from ..options import DriverOptions, ObsOptions

__all__ = [
    "FailedShard",
    "FleetPartitionedResult",
    "ShardResult",
    "ShardSpec",
    "ShardedRunResult",
    "derive_shard_seed",
    "make_shards",
    "partition_switches",
    "run_fleet_partitioned",
    "run_sharded",
]

logger = logging.getLogger(__name__)

#: Salt so shard seeds never collide with the base seed itself.
_SHARD_SEED_SALT = 0x51AB_D5EE_D000_0000


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """A well-separated 63-bit seed for one shard of a seeded run.

    Splitmix64-mixes ``(seed, shard_id)`` so neighbouring shards (and
    neighbouring base seeds) get uncorrelated generator streams — the
    correlated-collision hazard the single-pass hash pipeline work already
    established for table hashing applies equally to workload RNGs.
    """
    if shard_id < 0:
        raise ValueError("shard_id must be non-negative")
    return mix64(shard_id ^ _SHARD_SEED_SALT, seed) >> 1


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a sharded run; picklable, fully self-describing.

    ``params`` is a flat tuple of ``(key, value)`` pairs (primitives and
    tuples only) so the spec survives the spawn pickle boundary and can be
    hashed/compared in tests.
    """

    task: str
    shard_id: int
    num_shards: int
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass
class ShardResult:
    """What one worker sends back: mergeable state only, no live objects."""

    shard_id: int
    registry: MetricRegistry
    audit: AuditReport
    counters: Dict[str, float] = field(default_factory=dict)
    #: metric timeline, when the run asked for ``timeline_period_s``.
    timeline: Optional[Timeline] = None
    #: flight recorder, when the run asked for ``record``.
    recorder: Optional[FlightRecorder] = None


@dataclass(frozen=True)
class FailedShard:
    shard_id: int
    reason: str


@dataclass
class ShardedRunResult:
    """The merged fleet view of one sharded run."""

    task: str
    seed: int
    num_shards: int
    workers: int
    shards: List[ShardResult]
    failed: List[FailedShard]
    registry: MetricRegistry
    audit: AuditReport
    counters: Dict[str, float]
    #: fold of every shard's timeline (``None`` unless the run asked for one).
    timeline: Optional[Timeline] = None
    #: fold of every shard's recorder (``None`` unless the run asked for one).
    recorder: Optional[FlightRecorder] = None

    @property
    def fingerprint(self) -> str:
        return self.registry.fingerprint()

    @property
    def timeline_fingerprint(self) -> Optional[str]:
        return self.timeline.fingerprint() if self.timeline is not None else None

    @property
    def ok(self) -> bool:
        return self.audit.ok and not self.failed

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        failed = (
            f", {len(self.failed)} shards failed" if self.failed else ""
        )
        return (
            f"{self.task}[seed={self.seed}]: {len(self.shards)}/"
            f"{self.num_shards} shards on {self.workers} workers {state}"
            f" ({self.audit.checks_run} checks, "
            f"{len(self.audit.violations)} violations{failed}), "
            f"fingerprint {self.fingerprint[:16]}"
        )


# ----------------------------------------------------------------------
# Shard bodies (run inside worker processes; must be module-level so the
# spawn start method can re-import them)
# ----------------------------------------------------------------------


def _fold_prefixed(
    target: MetricRegistry, source: MetricRegistry, prefix: str
) -> None:
    """Fold ``source`` into ``target`` under a name prefix.

    Used to keep two systems' switches (e.g. ``silkroad`` and
    ``silkroad-no-transittable``) from colliding on identical instrument
    names inside one shard registry.
    """
    for name, theirs in source.instruments():
        pname = f"{prefix}.{name}"
        if isinstance(theirs, Histogram):
            ours = target.histogram(pname, buckets=theirs.bounds, help=theirs.help)
        elif isinstance(theirs, Gauge):
            ours = target.gauge(pname, help=theirs.help)
        else:
            ours = target.counter(pname, help=theirs.help)
        ours.merge_from(theirs)


def _shard_registry(spec: ShardSpec) -> MetricRegistry:
    return MetricRegistry(
        labels={"task": spec.task, "shard": str(spec.shard_id)}
    )


def _make_attach(
    spec: ShardSpec,
    scope: str,
    horizon_s: float,
    timeline_period_s: Optional[float],
    record: bool,
    samplers: List[TimelineSampler],
    recorders: List[FlightRecorder],
    record_capacity: int = DEFAULT_RING_SIZE,
):
    """Build the ``replay(attach=...)`` hook instrumenting one replay.

    The hook duck-types the LB: recorders only attach to switches exposing
    ``attach_recorder`` and samplers only arm when the LB carries a metric
    registry (the Duet baseline has neither).  Samplers use ``scope.`` as
    the column prefix — the same namespace :func:`_fold_prefixed` gives the
    merged registry — and recorders are tagged ``s<shard>.<scope>`` so the
    fleet-wide merge stays attributable.  Returns ``None`` when nothing
    was requested, keeping the replay hook-free (and the hot path
    untouched).
    """
    if timeline_period_s is None and not record:
        return None
    recorder = (
        FlightRecorder(capacity=record_capacity, source=f"s{spec.shard_id}.{scope}")
        if record
        else None
    )

    def attach(sim, lb) -> None:
        if recorder is not None and hasattr(lb, "attach_recorder"):
            lb.attach_recorder(recorder)
            recorders.append(recorder)
        metrics = getattr(lb, "metrics", None)
        if timeline_period_s is not None and metrics is not None:
            sampler = TimelineSampler(
                metrics, float(timeline_period_s), prefix=f"{scope}."
            )
            sampler.attach(sim.queue, horizon_s=horizon_s)
            samplers.append(sampler)

    return attach


def _shard_options(p: Dict[str, object]) -> Tuple[DriverOptions, ObsOptions]:
    """Decode a shard's driver/obs options from its frozen params.

    Shard params stay flat primitives (they cross the spawn pickle
    boundary inside :class:`ShardSpec`); this is the one place the scalar
    keys turn back into the public options dataclasses.  Missing keys get
    the dataclass defaults, so specs frozen before the options existed
    replay identically.
    """
    timeline_period = p.get("timeline_period_s")
    return (
        DriverOptions(
            batched=bool(p.get("batched", True)),
            batch_size=int(p.get("batch_size", 256)),
        ),
        ObsOptions(
            record=bool(p.get("record", False)),
            record_capacity=int(p.get("record_capacity", DEFAULT_RING_SIZE)),
            timeline_period_s=(
                float(timeline_period) if timeline_period is not None else None
            ),
        ),
    )


def _run_fig16_shard(spec: ShardSpec) -> ShardResult:
    """Replay this shard's VIP slice of a Figure-16-style workload.

    Both workload generators take *total* rates that they split across
    VIPs, so a shard holding ``k`` of ``V`` VIPs scales both the arrival
    knob (``scale``) and the update rate by ``k/V`` — the union of all
    shards then carries the full experiment's load.
    """
    from . import fig16
    from .common import build_workload

    p = spec.param_dict()
    total_vips = int(p["total_vips"])
    shard_vips = int(p["shard_vips"])
    frac = shard_vips / total_vips
    systems = tuple(p.get("systems", ("duet", "silkroad-no-transittable", "silkroad")))
    workload = build_workload(
        updates_per_min=float(p.get("updates_per_min", 10.0)) * frac,
        scale=float(p.get("scale", 1.0)) * frac,
        seed=spec.seed,
        horizon_s=float(p.get("horizon_s", 120.0)),
        warmup_s=float(p.get("warmup_s", 20.0)),
        num_vips=shard_vips,
    )
    factories = fig16.default_systems(
        insertion_rate_per_s=float(p.get("insertion_rate_per_s", 20_000.0))
    )
    driver, obs = _shard_options(p)
    registry = _shard_registry(spec)
    audit = AuditReport()
    counters: Dict[str, float] = {}
    samplers: List[TimelineSampler] = []
    recorders: List[FlightRecorder] = []
    for name in systems:
        attach = _make_attach(
            spec,
            name,
            workload.horizon_s,
            obs.timeline_period_s,
            obs.record,
            samplers,
            recorders,
            record_capacity=obs.record_capacity,
        )
        report, conns, lb = workload.replay(
            factories[name],
            attach=attach,
            batched=driver.batched,
            batch_size=driver.batch_size,
        )
        scope = registry.scope(name)
        scope.counter(
            "pcc_violations_total", help="connections that broke PCC"
        ).inc(report.pcc_violations)
        scope.counter(
            "measured_connections_total", help="connections in the window"
        ).inc(report.measured_connections)
        scope.counter(
            "connections_total", help="all replayed connections"
        ).inc(report.total_connections)
        counters[f"{name}.pcc_violations"] = float(report.pcc_violations)
        counters[f"{name}.measured_connections"] = float(
            report.measured_connections
        )
        if isinstance(lb, SilkRoadSwitch):
            audit.merge(audit_switch(lb, connections=conns), label=name)
            _fold_prefixed(registry, lb.metrics, name)
    return ShardResult(
        shard_id=spec.shard_id,
        registry=registry,
        audit=audit,
        counters=counters,
        timeline=Timeline.merged(s.timeline for s in samplers),
        recorder=FlightRecorder.merged(recorders),
    )


def _run_fig18_shard(spec: ShardSpec) -> ShardResult:
    """Run this shard's cells of the (filter size x timeout) grid.

    Each cell is seeded by its index in the *full* grid, so the merged
    result does not depend on how cells were grouped into shards.
    """
    from .common import build_workload, silkroad_factory

    p = spec.param_dict()
    driver, obs = _shard_options(p)
    registry = _shard_registry(spec)
    audit = AuditReport()
    counters: Dict[str, float] = {}
    samplers: List[TimelineSampler] = []
    recorders: List[FlightRecorder] = []
    for cell_index, size, timeout_s in p["cells"]:
        workload = build_workload(
            updates_per_min=float(p.get("updates_per_min", 30.0)),
            scale=float(p.get("scale", 1.0)),
            seed=derive_shard_seed(spec.seed, 1_000 + int(cell_index)),
            horizon_s=float(p.get("horizon_s", 60.0)),
            warmup_s=float(p.get("warmup_s", 10.0)),
            arrival_scale=float(p.get("arrival_scale", 16.0)),
            num_vips=int(p.get("num_vips", 2)),
        )
        factory = silkroad_factory(
            use_transit_table=True,
            transit_table_bytes=int(size),
            learning_timeout_s=float(timeout_s),
            insertion_rate_per_s=float(p.get("insertion_rate_per_s", 50_000.0)),
            conn_table_capacity=int(p.get("conn_table_capacity", 600_000)),
            name=f"silkroad-{int(size)}B",
        )
        cell = f"cell{int(cell_index):02d}"
        attach = _make_attach(
            spec,
            cell,
            workload.horizon_s,
            obs.timeline_period_s,
            obs.record,
            samplers,
            recorders,
            record_capacity=obs.record_capacity,
        )
        report, conns, lb = workload.replay(
            factory,
            attach=attach,
            batched=driver.batched,
            batch_size=driver.batch_size,
        )
        scope = registry.scope(cell)
        scope.counter(
            "pcc_violations_total", help="connections that broke PCC"
        ).inc(report.pcc_violations)
        scope.counter(
            "transit_fp_adopted_total", help="old-version adoptions via Bloom FP"
        ).inc(float(lb.transit_fp_adopted))
        counters[f"{cell}.pcc_violations"] = float(report.pcc_violations)
        counters[f"{cell}.transit_fp_adopted"] = float(lb.transit_fp_adopted)
        audit.merge(audit_switch(lb, connections=conns), label=cell)
        _fold_prefixed(registry, lb.metrics, cell)
    return ShardResult(
        shard_id=spec.shard_id,
        registry=registry,
        audit=audit,
        counters=counters,
        timeline=Timeline.merged(s.timeline for s in samplers),
        recorder=FlightRecorder.merged(recorders),
    )


def _run_chaos_shard(spec: ShardSpec) -> ShardResult:
    """One independent chaos run under this shard's derived seed."""
    from ..faults.chaos import run_chaos

    p = spec.param_dict()
    driver, obs = _shard_options(p)
    result = run_chaos(
        seed=spec.seed,
        scale=float(p.get("scale", 0.05)),
        horizon_s=float(p.get("horizon_s", 20.0)),
        warmup_s=float(p.get("warmup_s", 2.0)),
        updates_per_min=float(p.get("updates_per_min", 60.0)),
        faults_per_min=float(p.get("faults_per_min", 30.0)),
        driver=driver,
        obs=replace(obs, record_source=f"s{spec.shard_id}.chaos"),
    )
    registry = _shard_registry(spec)
    scope = registry.scope("chaos")
    scope.counter("faults_injected_total", help="faults in the plan").inc(
        len(result.plan)
    )
    scope.counter(
        "pcc_violations_total", help="connections that broke PCC"
    ).inc(result.report.pcc_violations)
    scope.counter(
        "overdue_updates_total", help="updates that overran the watchdog"
    ).inc(result.overdue_updates)
    registry.merge(result.switch.metrics)
    counters = {
        "faults_injected": float(len(result.plan)),
        "pcc_violations": float(result.report.pcc_violations),
        "overdue_updates": float(result.overdue_updates),
    }
    return ShardResult(
        shard_id=spec.shard_id,
        registry=registry,
        audit=result.audit,
        counters=counters,
        timeline=result.timeline,
        recorder=result.recorder,
    )


def _fleet_cell_seed(base_seed: int, pattern: str, plan_index: int, salt: int) -> int:
    """The derived seed of one ``(pattern, plan_index)`` fleet cell.

    Keyed by the *content* of the cell — the pattern name's hash and the
    plan index — never by the cell's position in the sweep, so permuting
    the ``patterns`` tuple (or regrouping cells into shards) cannot
    silently change any cell's workload or fault plan.
    """
    pattern_h = base_hash(str(pattern).encode("utf-8"))
    return derive_shard_seed(base_seed, mix64(pattern_h, salt + plan_index) >> 1)


def _run_fleet_shard(spec: ShardSpec) -> ShardResult:
    """Run this shard's cells of the fleet-chaos survival sweep.

    A cell is one ``(pattern, plan_index)`` fleet run, seeded from the
    sweep's base seed and the cell's own identity (see
    :func:`_fleet_cell_seed`), so merged fingerprints depend only on the
    set of cells — never on worker count, shard count or the order the
    patterns were listed in.  The merged audit carries the fleet
    attribution requirement: any unattributed PCC violation or drop in
    any cell surfaces as a violation labelled with that cell.
    """
    from ..faults.fleet import run_fleet

    p = spec.param_dict()
    driver, obs = _shard_options(p)
    registry = _shard_registry(spec)
    audit = AuditReport()
    counters: Dict[str, float] = {}
    timelines: List[Timeline] = []
    recorders: List[FlightRecorder] = []
    base_seed = int(p.get("base_seed", spec.seed))
    for pattern, plan_index in p["cells"]:
        cell = f"{pattern}{int(plan_index):02d}"
        result = run_fleet(
            seed=_fleet_cell_seed(base_seed, pattern, int(plan_index), 20_000),
            fault_seed=_fleet_cell_seed(base_seed, pattern, int(plan_index), 30_000),
            pattern=str(pattern),
            num_switches=int(p.get("num_switches", 4)),
            scale=float(p.get("scale", 0.05)),
            horizon_s=float(p.get("horizon_s", 20.0)),
            warmup_s=float(p.get("warmup_s", 2.0)),
            updates_per_min=float(p.get("updates_per_min", 60.0)),
            faults_per_min=float(p.get("faults_per_min", 4.0)),
            replication=p.get("replication"),
            conn_budget=p.get("conn_budget"),
            driver=driver,
            obs=replace(obs, record_source=f"s{spec.shard_id}.{cell}"),
        )
        audit.merge(result.audit.audit, label=cell)
        audit.checks_run += 2
        if result.audit.unattributed_violations:
            audit.violations.append(
                f"[{cell}] {result.audit.unattributed_violations} PCC "
                "violations with no fleet attribution"
            )
        if result.audit.unattributed_drops:
            audit.violations.append(
                f"[{cell}] {result.audit.unattributed_drops} dropped "
                "connections with no fleet attribution"
            )
        survival = result.survival
        for key in ("measured", "kept", "broken", "blackholed"):
            counters[f"{pattern}.{key}"] = (
                counters.get(f"{pattern}.{key}", 0.0) + float(survival[key])
            )
        counters[f"{pattern}.shed"] = counters.get(
            f"{pattern}.shed", 0.0
        ) + float(result.fleet.shed_connections)
        scope = registry.scope(cell)
        scope.counter(
            "pcc_broken_total", help="measured connections that broke PCC"
        ).inc(survival["broken"])
        scope.counter(
            "blackholed_total", help="measured connections blackholed intact"
        ).inc(survival["blackholed"])
        _fold_prefixed(registry, result.fleet.merged_registry(), cell)
        if result.timeline is not None:
            timelines.append(result.timeline)
        if result.recorder is not None:
            recorders.append(result.recorder)
    return ShardResult(
        shard_id=spec.shard_id,
        registry=registry,
        audit=audit,
        counters=counters,
        timeline=Timeline.merged(timelines) if timelines else None,
        recorder=FlightRecorder.merged(recorders) if recorders else None,
    )


def _run_crashy_shard(spec: ShardSpec) -> ShardResult:
    """Test-only task exercising the fault-tolerance path.

    ``crash_once_marker`` names a file: on the first attempt the worker
    creates it and dies without a word (``os._exit``), on the retry it
    succeeds — so tests can pin the retry-once contract.  With
    ``always_fail`` the shard raises every time and must end up in
    ``failed``.
    """
    p = spec.param_dict()
    if p.get("always_fail"):
        raise RuntimeError(f"shard {spec.shard_id} told to fail")
    marker = p.get("crash_once_marker")
    if marker and not os.path.exists(str(marker)):
        with open(str(marker), "w") as fh:
            fh.write(str(spec.shard_id))
        os._exit(3)
    registry = _shard_registry(spec)
    registry.counter("crashy.completions_total").inc()
    return ShardResult(
        shard_id=spec.shard_id,
        registry=registry,
        audit=AuditReport(),
        counters={"completions": 1.0},
    )


_TASKS: Dict[str, Callable[[ShardSpec], ShardResult]] = {
    "fig16": _run_fig16_shard,
    "fig18": _run_fig18_shard,
    "chaos": _run_chaos_shard,
    "fleet": _run_fleet_shard,
    "_crashy": _run_crashy_shard,
}


def run_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard in the current process."""
    try:
        body = _TASKS[spec.task]
    except KeyError:
        raise ValueError(
            f"unknown shard task {spec.task!r} (have {sorted(_TASKS)})"
        ) from None
    return body(spec)


def _worker_main(spec: ShardSpec, conn) -> None:
    """Spawned worker entrypoint: run one shard, ship the result back.

    The failure path must never go silent: if the error payload itself
    cannot be shipped (parent gone, pipe broken), the traceback is written
    to stderr and the exception re-raised so the worker dies loudly with a
    non-zero exit code — the parent then reports ``worker exited with
    code N`` instead of dropping the evidence.
    """
    try:
        result = run_shard(spec)
        conn.send(("ok", result))
    except BaseException:
        tb = traceback.format_exc()
        try:
            conn.send(("error", tb))
        except Exception:
            sys.stderr.write(
                f"[parallel] shard {spec.shard_id} failed and the error "
                f"pipe is dead; traceback follows\n{tb}"
            )
            sys.stderr.flush()
            raise
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Shard layout
# ----------------------------------------------------------------------


def _freeze_params(params: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(params.items()))


def make_shards(
    task: str,
    num_shards: int,
    seed: int,
    params: Optional[Dict[str, object]] = None,
) -> List[ShardSpec]:
    """The deterministic shard layout of one run.

    Depends only on ``(task, num_shards, seed, params)`` — never on worker
    count or machine — which is what makes merged fingerprints comparable
    across pool sizes.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if task not in _TASKS:
        raise ValueError(f"unknown shard task {task!r} (have {sorted(_TASKS)})")
    params = dict(params or {})
    specs: List[ShardSpec] = []
    if task == "fig16":
        total_vips = int(params.pop("num_vips", 8))
        if num_shards > total_vips:
            raise ValueError(
                f"cannot split {total_vips} VIPs into {num_shards} shards"
            )
        base, extra = divmod(total_vips, num_shards)
        for shard_id in range(num_shards):
            shard_vips = base + (1 if shard_id < extra else 0)
            shard_params = dict(
                params, total_vips=total_vips, shard_vips=shard_vips
            )
            specs.append(
                ShardSpec(
                    task=task,
                    shard_id=shard_id,
                    num_shards=num_shards,
                    seed=derive_shard_seed(seed, shard_id),
                    params=_freeze_params(shard_params),
                )
            )
    elif task == "fig18":
        sizes = tuple(params.pop("sizes", (8, 64, 256)))
        timeouts = tuple(params.pop("timeouts", (0.5e-3, 5e-3)))
        cells = [
            (index, int(size), float(timeout))
            for index, (timeout, size) in enumerate(
                (t, s) for t in timeouts for s in sizes
            )
        ]
        if num_shards > len(cells):
            raise ValueError(
                f"cannot split {len(cells)} grid cells into {num_shards} shards"
            )
        base, extra = divmod(len(cells), num_shards)
        offset = 0
        for shard_id in range(num_shards):
            take = base + (1 if shard_id < extra else 0)
            shard_params = dict(
                params, cells=tuple(cells[offset : offset + take])
            )
            offset += take
            specs.append(
                ShardSpec(
                    task=task,
                    shard_id=shard_id,
                    num_shards=num_shards,
                    seed=derive_shard_seed(seed, shard_id),
                    params=_freeze_params(shard_params),
                )
            )
    elif task == "fleet":
        patterns = tuple(
            params.pop("patterns", ("crash", "partition", "flap", "cascade", "mixed"))
        )
        plans_per_pattern = int(params.pop("plans_per_pattern", 4))
        # Cells are identified by (pattern, plan_index), not sweep position:
        # _fleet_cell_seed keys each cell's seeds off this identity, so a
        # permuted ``patterns`` tuple yields the same per-cell runs (and the
        # same merged fingerprint) in a different merge order — and the merge
        # itself is order-insensitive for counters and registry folds.
        cells = [
            (pattern, plan_index)
            for pattern in patterns
            for plan_index in range(plans_per_pattern)
        ]
        if num_shards > len(cells):
            raise ValueError(
                f"cannot split {len(cells)} fleet cells into {num_shards} shards"
            )
        base, extra = divmod(len(cells), num_shards)
        offset = 0
        for shard_id in range(num_shards):
            take = base + (1 if shard_id < extra else 0)
            shard_params = dict(
                params,
                cells=tuple(cells[offset : offset + take]),
                base_seed=int(seed),
            )
            offset += take
            specs.append(
                ShardSpec(
                    task=task,
                    shard_id=shard_id,
                    num_shards=num_shards,
                    seed=derive_shard_seed(seed, shard_id),
                    params=_freeze_params(shard_params),
                )
            )
    else:  # chaos and test tasks: one derived seed per shard
        for shard_id in range(num_shards):
            specs.append(
                ShardSpec(
                    task=task,
                    shard_id=shard_id,
                    num_shards=num_shards,
                    seed=derive_shard_seed(seed, shard_id),
                    params=_freeze_params(params),
                )
            )
    return specs


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _run_serial(
    specs: Sequence[ShardSpec], retries: int
) -> Tuple[List[ShardResult], List[FailedShard], int]:
    """In-process driver.  Returns ``(results, failed, error_attempts)``.

    Every failed attempt — retried or terminal — is logged with its
    traceback and counted, so a flaky shard leaves evidence even when the
    retry ultimately succeeds.
    """
    results: List[ShardResult] = []
    failed: List[FailedShard] = []
    errors = 0
    for spec in specs:
        last_error = "unknown error"
        for attempt in range(retries + 1):
            try:
                results.append(run_shard(spec))
                break
            except Exception:
                last_error = traceback.format_exc()
                errors += 1
                logger.warning(
                    "shard %d attempt %d/%d failed:\n%s",
                    spec.shard_id,
                    attempt + 1,
                    retries + 1,
                    last_error,
                )
        else:
            logger.error(
                "shard %d failed after %d attempts", spec.shard_id, retries + 1
            )
            failed.append(FailedShard(spec.shard_id, last_error))
    return results, failed, errors


def _run_parallel(
    specs: Sequence[ShardSpec], workers: int, retries: int
) -> Tuple[List[ShardResult], List[FailedShard], int]:
    """Run shards on a pool of spawned processes, one process per attempt.

    Returns ``(results, failed, error_attempts)``; every failed attempt is
    logged with whatever evidence survived (the shipped traceback, or the
    worker's exit code when the process died before sending one).

    ``spawn`` (not fork) so workers import a pristine interpreter — the
    same environment the determinism tests pin — and a crashed worker
    cannot corrupt shared state.  Each attempt gets a fresh process; a
    shard whose worker dies (no result on the pipe) or raises is retried
    ``retries`` times, then recorded as failed.

    The wait set holds each worker's result pipe *and* its process
    sentinel: a payload bigger than the pipe buffer (recorders ship whole
    event rings) blocks the child's ``send`` until the parent drains it,
    so waiting on the sentinel alone would deadlock — the child cannot
    exit before the parent reads, and the parent would never read.
    """
    ctx = mp.get_context("spawn")
    pending = deque(specs)
    attempts: Dict[int, int] = {spec.shard_id: 0 for spec in specs}
    live: Dict[object, Tuple[ShardSpec, object, object]] = {}
    results: List[ShardResult] = []
    failed: List[FailedShard] = []
    errors = 0
    while pending or live:
        while pending and len(live) < workers:
            spec = pending.popleft()
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main, args=(spec, send_end), daemon=True
            )
            proc.start()
            send_end.close()
            live[proc.sentinel] = (spec, proc, recv_end)
        waitables: List[object] = []
        for sentinel, (_spec, _proc, recv_end) in live.items():
            waitables.append(recv_end)
            waitables.append(sentinel)
        ready = set(mp.connection.wait(waitables))
        for sentinel in list(live):
            spec, proc, recv_end = live[sentinel]
            if sentinel not in ready and recv_end not in ready:
                continue
            del live[sentinel]
            payload = None
            try:
                if recv_end.poll():
                    payload = recv_end.recv()
            except (EOFError, OSError):
                payload = None
            finally:
                recv_end.close()
            proc.join()
            if payload is not None and payload[0] == "ok":
                results.append(payload[1])
                continue
            errors += 1
            reason = (
                payload[1]
                if payload is not None
                else f"worker exited with code {proc.exitcode}"
            )
            attempts[spec.shard_id] += 1
            if attempts[spec.shard_id] <= retries:
                logger.warning(
                    "shard %d attempt %d/%d failed, retrying:\n%s",
                    spec.shard_id,
                    attempts[spec.shard_id],
                    retries + 1,
                    reason,
                )
                pending.append(spec)
            else:
                logger.error(
                    "shard %d failed after %d attempts:\n%s",
                    spec.shard_id,
                    retries + 1,
                    reason,
                )
                failed.append(FailedShard(spec.shard_id, reason))
    return results, failed, errors


def run_sharded(
    task: str,
    num_shards: int = 4,
    workers: Optional[int] = None,
    seed: int = 7,
    retries: int = 1,
    params: Optional[Dict[str, object]] = None,
    strict: bool = False,
    driver: Optional[DriverOptions] = None,
    obs: Optional[ObsOptions] = None,
) -> ShardedRunResult:
    """Run one experiment as ``num_shards`` deterministic shards.

    ``workers`` sizes the process pool (default: ``min(num_shards,``
    CPU count``)``); ``workers <= 1`` runs every shard in-process, which
    produces byte-identical results to any parallel pool because the
    shard layout and merge order are fixed by ``num_shards`` alone.

    ``driver``/``obs`` carry the shared replay-driver and observability
    knobs; they are flattened into the shard params as the scalar keys the
    shard bodies read (an explicit key already in ``params`` wins), so
    :class:`ShardSpec` stays a picklable bag of primitives.

    Every failed attempt is logged and counted in
    ``parallel.worker_errors_total``; shards still failing after the
    retry budget land in ``result.failed`` — or, with ``strict=True``,
    raise :class:`RuntimeError` carrying every terminal traceback.
    """
    if driver is not None or obs is not None:
        driver = driver or DriverOptions()
        obs = obs or ObsOptions()
        params = dict(params or {})
        params.setdefault("batched", driver.batched)
        params.setdefault("batch_size", driver.batch_size)
        params.setdefault("record", obs.record)
        params.setdefault("record_capacity", obs.record_capacity)
        params.setdefault("timeline_period_s", obs.timeline_period_s)
    specs = make_shards(task, num_shards=num_shards, seed=seed, params=params)
    if workers is None:
        workers = min(num_shards, os.cpu_count() or 1)
    if workers <= 1:
        results, failed, errors = _run_serial(specs, retries)
    else:
        results, failed, errors = _run_parallel(specs, workers, retries)
    results.sort(key=lambda r: r.shard_id)
    failed.sort(key=lambda f: f.shard_id)
    if strict and failed:
        details = "\n".join(
            f"--- shard {f.shard_id} ---\n{f.reason}" for f in failed
        )
        raise RuntimeError(
            f"{len(failed)} shard(s) failed after {retries + 1} attempt(s) "
            f"in {task}[seed={seed}]:\n{details}"
        )
    registry = MetricRegistry.merged(
        (r.registry for r in results),
        labels={"task": task, "seed": str(seed)},
    )
    registry.counter(
        "parallel.shards_total", help="shards this run was split into"
    ).inc(num_shards)
    registry.counter(
        "parallel.shards_failed_total", help="shards that failed after retry"
    ).inc(len(failed))
    registry.counter(
        "parallel.worker_errors_total",
        help="failed shard attempts (including retried ones)",
    ).inc(errors)
    audit = AuditReport()
    for result in results:
        audit.merge(result.audit, label=f"shard-{result.shard_id}")
    counters: Dict[str, float] = {}
    for result in results:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    timeline = Timeline.merged(
        r.timeline for r in results if r.timeline is not None
    )
    recorder = FlightRecorder.merged(
        r.recorder for r in results if r.recorder is not None
    )
    return ShardedRunResult(
        task=task,
        seed=seed,
        num_shards=num_shards,
        workers=workers,
        shards=results,
        failed=failed,
        registry=registry,
        audit=audit,
        counters=counters,
        timeline=timeline,
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# Space-partitioned fleet execution (one simulation, many workers)
# ----------------------------------------------------------------------
#
# `run_sharded` above parallelizes *bags* of runs; `run_fleet_partitioned`
# parallelizes the inside of ONE `FleetSilkRoad` run.  The design is
# replicated control plane / partitioned data plane:
#
# * Every worker replays the *entire* deterministic simulation — the same
#   workload, fault plan, controller heartbeats, declare-downs, re-homes,
#   reassignment steps and shedding decisions — so cross-partition control
#   events need no migration protocol: each replica computes them locally
#   from replicated state, in the identical event order.
# * Each worker *materializes* only its `FleetPartition.owned` switches;
#   the rest are `_PhantomSwitch` stand-ins that mirror the clock advance
#   but simulate nothing.  The expensive part of a fleet run — per-packet
#   ConnTable/Bloom work inside `SilkRoadSwitch` — is therefore split
#   `1/W` per worker.
# * Lockstep epochs, bounded by `partition_epoch_length` (the minimum
#   cross-partition latency: heartbeat interval, announce delay, drain
#   window), are barriers at which replicas exchange `epoch_digest()` —
#   a running journal of every cross-partition event class plus the
#   replicated-state sizes.  Equal digests prove the replicas agree;
#   any divergence aborts the run at the epoch that exposed it rather
#   than yielding silently wrong merged results.
# * Observability stays pairwise disjoint by construction (fleet-scope
#   instruments and cause maps on the primary replica, per-switch
#   instruments/recorders/audits on the owner), so the merged
#   MetricRegistry / Timeline / FlightRecorder / FleetAuditReport are
#   bit-identical for every worker count.


def partition_switches(
    num_switches: int, num_workers: int
) -> List[Tuple[int, ...]]:
    """Contiguous switch ranges, one per worker, sizes differing by <= 1.

    Depends only on ``(num_switches, num_workers)``, mirroring
    :func:`make_shards`: the layout is what fixes which replica owns which
    data plane, and it must never depend on machine or pool state.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    if num_workers > num_switches:
        raise ValueError(
            f"cannot split {num_switches} switches across {num_workers} workers"
        )
    base, extra = divmod(num_switches, num_workers)
    owned_sets: List[Tuple[int, ...]] = []
    offset = 0
    for worker_id in range(num_workers):
        take = base + (1 if worker_id < extra else 0)
        owned_sets.append(tuple(range(offset, offset + take)))
        offset += take
    return owned_sets


def _partition_epochs(horizon_s: float, epoch_s: float) -> int:
    """How many barriers fit strictly inside ``[0, horizon_s]``.

    The epsilon absorbs float division noise so e.g. a 20 s horizon over
    0.05 s epochs yields exactly 400 barriers on every replica.
    """
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive")
    return max(0, int(horizon_s / epoch_s + 1e-9))


@dataclass
class _PartitionPartial:
    """One replica's mergeable share of a partitioned fleet run."""

    worker_id: int
    owned: Tuple[int, ...]
    registry: MetricRegistry
    #: structural audit of the owned instances (labelled ``sw<i>g<gen>``).
    audit: AuditReport
    #: per-switch attribution-prediction keys from the owned instances.
    predicted: Set[bytes]
    #: per-connection outcome rows (key, dips, dropped, broken, start).
    outcomes: List[Tuple[bytes, Tuple[str, ...], bool, bool, float]]
    #: fleet cause maps; authoritative on the primary replica, else None.
    move_causes: Optional[Dict[bytes, str]]
    drop_causes: Optional[Dict[bytes, str]]
    #: fleet counters (primary only) — replicated, so one copy suffices.
    counters: Dict[str, float]
    #: live ConnTable entries of the owned, dataplane-up switches.
    conn_entries: Dict[str, float]
    #: every (epoch, digest) this replica produced, final state included.
    epoch_digests: Tuple[Tuple[int, Tuple[int, ...]], ...]
    timeline: Optional[Timeline] = None
    recorder: Optional[FlightRecorder] = None


@dataclass
class FleetPartitionedResult:
    """The merged view of one space-partitioned fleet run."""

    pattern: str
    seed: int
    fault_seed: int
    num_switches: int
    workers: int
    partitions: List[Tuple[int, ...]]
    #: lockstep barriers the run crossed (0 when the horizon is short).
    epochs: int
    epoch_length_s: float
    registry: MetricRegistry
    audit: "object"  # FleetAuditReport; typed loosely to avoid the import cycle
    survival: Dict[str, int]
    counters: Dict[str, float]
    timeline: Optional[Timeline] = None
    recorder: Optional[FlightRecorder] = None

    @property
    def fingerprint(self) -> str:
        return self.registry.fingerprint()

    @property
    def audit_fingerprint(self) -> str:
        return self.audit.fingerprint()

    @property
    def timeline_fingerprint(self) -> Optional[str]:
        return self.timeline.fingerprint() if self.timeline is not None else None

    @property
    def ok(self) -> bool:
        return self.audit.ok

    def summary(self) -> str:
        s = self.survival
        return (
            f"fleet-partition[{self.pattern}/{self.seed}] x{self.workers} "
            f"workers ({self.epochs} epochs of {self.epoch_length_s}s): "
            f"{s['measured']} measured — {s['kept']} kept, "
            f"{s['broken']} broken, {s['blackholed']} blackholed, "
            f"audit {'ok' if self.ok else 'FAILED'}, "
            f"fingerprint {self.fingerprint[:16]}"
        )


def _run_partition_replica(
    worker_id: int,
    owned: Tuple[int, ...],
    num_workers: int,
    barrier: Optional[Callable[[int, Tuple[int, ...]], None]],
    run_kwargs: Dict[str, object],
) -> _PartitionPartial:
    """Replay the full fleet simulation as partition replica ``worker_id``.

    ``barrier(epoch, digest)`` is called at every epoch boundary (spawn
    mode blocks in it until the parent has cross-checked all replicas;
    in-process mode passes ``None`` and digests are verified post-hoc at
    merge).  Barrier events are scheduled *up front*, before the replay
    starts: they shift every simulation event's heap sequence number by
    the same constant on every replica, so pairwise event ordering — and
    with it every simulated outcome — is unchanged by the epoch count.
    """
    from ..deploy.fleet import (
        FleetPartition,
        FleetSilkRoad,
        collect_structural,
        connection_outcomes,
        partition_epoch_length,
    )
    from ..faults.fleet import FleetFaultInjector, resolve_fleet_run
    from ..netsim.simulator import PRIO_INTERNAL

    kw = dict(run_kwargs)
    record = bool(kw.pop("record", False))
    record_capacity = int(kw.pop("record_capacity", DEFAULT_RING_SIZE))
    timeline_period_s = kw.pop("timeline_period_s", None)
    batched = bool(kw.pop("batched", True))
    batch_size = int(kw.pop("batch_size", 256))
    num_switches = int(kw["num_switches"])
    workload, plan, config, fleet_config, _fault_seed = resolve_fleet_run(**kw)
    partition = FleetPartition(
        owned=tuple(owned), worker_id=worker_id, num_workers=num_workers
    )
    injector = FleetFaultInjector(plan)
    epoch_s = partition_epoch_length(fleet_config)
    epochs = _partition_epochs(workload.horizon_s, epoch_s)
    digests: List[Tuple[int, Tuple[int, ...]]] = []
    samplers: List[TimelineSampler] = []

    def attach(sim, lb) -> None:
        if record:
            lb.attach_partition_recorders(record_capacity)
        if timeline_period_s is not None:
            sampler = TimelineSampler(lb.metrics, float(timeline_period_s))
            sampler.attach(sim.queue, horizon_s=workload.horizon_s)
            samplers.append(sampler)
        for k in range(1, epochs + 1):

            def fire(kk: int = k, fleet=lb) -> None:
                digest = fleet.epoch_digest()
                digests.append((kk, digest))
                if barrier is not None:
                    barrier(kk, digest)

            sim.queue.schedule(k * epoch_s, fire, PRIO_INTERNAL)

    _report, connections, fleet = workload.replay(
        lambda: FleetSilkRoad(
            num_switches=num_switches,
            config=config,
            fleet_config=fleet_config,
            partition=partition,
        ),
        faults=injector,
        attach=attach,
        batched=batched,
        batch_size=batch_size,
    )
    # Final-state digest: catches divergence after the last barrier.
    digests.append((epochs + 1, fleet.epoch_digest()))
    structural, predicted = collect_structural(fleet)
    fleet_report = fleet.report()
    conn_entries = {
        key: value
        for key, value in fleet_report.items()
        if key.endswith("_conn_entries") and key != "fleet_conn_entries"
    }
    counters: Dict[str, float] = {}
    move_causes: Optional[Dict[bytes, str]] = None
    drop_causes: Optional[Dict[bytes, str]] = None
    if partition.primary:
        move_causes = dict(fleet._move_cause)
        drop_causes = dict(fleet._drop_cause)
        counters = {
            key: value
            for key, value in fleet_report.items()
            if not key.endswith("_conn_entries")
        }
    recorder = (
        FlightRecorder.merged(fleet.partition_recorders()) if record else None
    )
    return _PartitionPartial(
        worker_id=worker_id,
        owned=tuple(owned),
        registry=fleet.merged_registry(),
        audit=structural,
        predicted=set(predicted),
        outcomes=connection_outcomes(connections),
        move_causes=move_causes,
        drop_causes=drop_causes,
        counters=counters,
        conn_entries=conn_entries,
        epoch_digests=tuple(digests),
        timeline=samplers[0].timeline if samplers else None,
        recorder=recorder,
    )


def _partition_worker_main(
    worker_id: int,
    owned: Tuple[int, ...],
    num_workers: int,
    run_kwargs: Dict[str, object],
    conn,
) -> None:
    """Spawned partition worker: replay one replica, barrier over the pipe.

    Protocol (duplex pipe): ``("epoch", k, digest)`` up at each barrier,
    blocking until the parent's ``"go"`` comes back; ``("done", partial)``
    after the run; ``("error", traceback)`` on any failure.  Like
    `_worker_main`, the failure path never goes silent: if the error
    cannot be shipped it lands on stderr and the worker dies non-zero.
    """
    try:

        def barrier(k: int, digest: Tuple[int, ...]) -> None:
            conn.send(("epoch", k, digest))
            reply = conn.recv()
            if reply != "go":
                raise RuntimeError(
                    f"partition worker {worker_id}: unexpected barrier "
                    f"reply {reply!r} at epoch {k}"
                )

        partial = _run_partition_replica(
            worker_id, tuple(owned), num_workers, barrier, run_kwargs
        )
        conn.send(("done", partial))
    except BaseException:
        tb = traceback.format_exc()
        try:
            conn.send(("error", tb))
        except Exception:
            sys.stderr.write(
                f"[parallel] partition worker {worker_id} failed and the "
                f"error pipe is dead; traceback follows\n{tb}"
            )
            sys.stderr.flush()
            raise
    finally:
        conn.close()


def _run_partition_pool(
    owned_sets: Sequence[Tuple[int, ...]],
    run_kwargs: Dict[str, object],
    epochs: int,
) -> List[_PartitionPartial]:
    """Drive one spawned replica per partition through lockstep epochs.

    The parent is the barrier: each epoch it collects every replica's
    digest, verifies replica agreement, and releases the round with
    ``"go"``.  A dead worker (EOF on its pipe) or a digest mismatch
    aborts the whole run — a partitioned result must never silently
    omit a partition.
    """
    ctx = mp.get_context("spawn")
    num_workers = len(owned_sets)
    procs: List[object] = []
    pipes: List[object] = []
    try:
        for worker_id, owned in enumerate(owned_sets):
            parent_end, child_end = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_partition_worker_main,
                args=(worker_id, tuple(owned), num_workers, run_kwargs, child_end),
                daemon=True,
            )
            proc.start()
            child_end.close()
            procs.append(proc)
            pipes.append(parent_end)

        def receive(worker_id: int, expect: str, epoch: Optional[int] = None):
            try:
                message = pipes[worker_id].recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    f"partition worker {worker_id} died"
                    + (f" before epoch {epoch}" if epoch is not None else "")
                ) from None
            if message[0] == "error":
                raise RuntimeError(
                    f"partition worker {worker_id} failed:\n{message[1]}"
                )
            if message[0] != expect:
                raise RuntimeError(
                    f"partition worker {worker_id}: expected {expect!r}, "
                    f"got {message[0]!r}"
                )
            return message

        for k in range(1, epochs + 1):
            round_digests = []
            for worker_id in range(num_workers):
                message = receive(worker_id, "epoch", epoch=k)
                if message[1] != k:
                    raise RuntimeError(
                        f"partition worker {worker_id} is at epoch "
                        f"{message[1]}, parent at {k}"
                    )
                round_digests.append(message[2])
            baseline = round_digests[0]
            for worker_id, digest in enumerate(round_digests):
                if digest != baseline:
                    raise RuntimeError(
                        f"partition replicas diverged at epoch {k}: worker "
                        f"{worker_id} digest {digest} != worker 0 digest "
                        f"{baseline}"
                    )
            for pipe in pipes:
                pipe.send("go")
        partials = [
            receive(worker_id, "done")[1] for worker_id in range(num_workers)
        ]
        return partials
    finally:
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run_fleet_partitioned(
    partition_workers: int = 1,
    in_process: Optional[bool] = None,
    seed: int = 7,
    fault_seed: Optional[int] = None,
    pattern: str = "mixed",
    num_switches: int = 4,
    scale: float = 0.05,
    horizon_s: float = 20.0,
    warmup_s: float = 2.0,
    updates_per_min: float = 60.0,
    faults_per_min: float = 4.0,
    replication: Optional[int] = None,
    conn_budget: Optional[int] = None,
    config: Optional[object] = None,
    fleet_config: Optional[object] = None,
    plan: Optional[object] = None,
    driver: Optional[DriverOptions] = None,
    obs: Optional[ObsOptions] = None,
) -> FleetPartitionedResult:
    """One fleet chaos run, space-partitioned over ``partition_workers``.

    Accepts the same knobs as :func:`repro.faults.fleet.run_fleet`; the
    partition layout comes from :func:`partition_switches` and depends
    only on ``(num_switches, partition_workers)``, so the merged
    registry, timeline, recorder and audit fingerprints are bit-identical
    for every worker count (asserted by tests/experiments/
    test_partition.py).  ``in_process`` (default: ``partition_workers ==
    1``) runs the replicas sequentially in this process — same results,
    no pool — with digests cross-checked post-hoc instead of per epoch.
    ``driver``/``obs`` are the replay/observability knobs.
    """
    from ..deploy.fleet import (
        FleetConfig,
        attribute_outcomes,
        partition_epoch_length,
    )

    driver = driver or DriverOptions()
    obs = obs or ObsOptions()
    owned_sets = partition_switches(num_switches, partition_workers)
    resolved_fleet_config = (
        fleet_config
        if fleet_config is not None
        else FleetConfig(replication=replication, conn_budget=conn_budget)
    )
    epoch_s = partition_epoch_length(resolved_fleet_config)
    epochs = _partition_epochs(horizon_s, epoch_s)
    if in_process is None:
        in_process = partition_workers == 1
    run_kwargs: Dict[str, object] = {
        "seed": int(seed),
        "fault_seed": fault_seed,
        "pattern": str(pattern),
        "num_switches": int(num_switches),
        "scale": float(scale),
        "horizon_s": float(horizon_s),
        "warmup_s": float(warmup_s),
        "updates_per_min": float(updates_per_min),
        "faults_per_min": float(faults_per_min),
        "replication": replication,
        "conn_budget": conn_budget,
        "config": config,
        "fleet_config": fleet_config,
        "plan": plan,
        "record": obs.record,
        "record_capacity": int(obs.record_capacity),
        "timeline_period_s": obs.timeline_period_s,
        "batched": bool(driver.batched),
        "batch_size": int(driver.batch_size),
    }
    if in_process:
        partials = [
            _run_partition_replica(
                worker_id, owned, partition_workers, None, run_kwargs
            )
            for worker_id, owned in enumerate(owned_sets)
        ]
    else:
        partials = _run_partition_pool(owned_sets, run_kwargs, epochs)
    partials.sort(key=lambda p: p.worker_id)

    # Replica agreement: every replica must have produced the identical
    # digest stream (spawn mode already verified per epoch; this also
    # covers in-process mode and the final post-horizon digest).
    baseline = partials[0].epoch_digests
    for partial in partials[1:]:
        if partial.epoch_digests != baseline:
            diverged = next(
                (
                    k
                    for (k, a), (_k, b) in zip(baseline, partial.epoch_digests)
                    if a != b
                ),
                len(baseline),
            )
            raise RuntimeError(
                f"partition replicas diverged at epoch {diverged}: worker "
                f"{partial.worker_id} disagrees with worker 0"
            )

    registry = MetricRegistry.merged(
        (p.registry for p in partials), labels={"fleet": "fleet-silkroad"}
    )
    structural = AuditReport()
    predicted: Set[bytes] = set()
    for partial in partials:
        structural.merge(partial.audit)
        predicted |= partial.predicted

    # Per-connection outcome rows: every replica carries every connection
    # (replicated control plane), each contributing the decisions its own
    # data planes made — union DIP sets, OR the flags.
    merged_rows: Dict[bytes, List[object]] = {}
    for partial in partials:
        for key, dips, dropped, broken, start in partial.outcomes:
            row = merged_rows.get(key)
            if row is None:
                merged_rows[key] = [set(dips), dropped, broken, start]
            else:
                row[0] |= set(dips)
                row[1] = row[1] or dropped
                row[2] = row[2] or broken
    measured = kept = broken_count = blackholed = 0
    for key, row in merged_rows.items():
        if row[3] < 0:
            continue
        measured += 1
        if len(row[0]) > 1 and not row[2]:
            broken_count += 1
        elif row[1]:
            blackholed += 1
        else:
            kept += 1
    survival = {
        "measured": measured,
        "kept": kept,
        "broken": broken_count,
        "blackholed": blackholed,
    }
    primary = partials[0]
    audit = attribute_outcomes(
        structural,
        (
            (key, len(row[0]) > 1 and not row[2], bool(row[1]))
            for key, row in merged_rows.items()
        ),
        primary.move_causes or {},
        primary.drop_causes or {},
        predicted,
    )
    counters = dict(primary.counters)
    live_entries = 0.0
    for partial in partials:
        for key, value in partial.conn_entries.items():
            counters[key] = value
            live_entries += value
    counters["fleet_conn_entries"] = live_entries
    timeline = Timeline.merged(
        p.timeline for p in partials if p.timeline is not None
    )
    recorder = FlightRecorder.merged(
        p.recorder for p in partials if p.recorder is not None
    )
    return FleetPartitionedResult(
        pattern=pattern,
        seed=seed,
        fault_seed=fault_seed if fault_seed is not None else seed + 2000,
        num_switches=num_switches,
        workers=partition_workers,
        partitions=owned_sets,
        epochs=epochs,
        epoch_length_s=epoch_s,
        registry=registry,
        audit=audit,
        survival=survival,
        counters=counters,
        timeline=timeline,
        recorder=recorder,
    )
