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
* **Per-shard seeds are derived**, not shared: a fig16 or chaos shard *i*
  replays with ``derive_shard_seed(seed, i)`` (a splitmix64 mix), so
  shards are statistically independent slices of the same experiment, and
  the union is statistically equivalent to — not a permutation of — the
  unsharded run.  The cell sweeps (fig18, fleet) instead hand every shard
  the base seed and run each cell through its experiment's own definition,
  so a cell's result does not depend on ``num_shards`` at all.
* **Merges happen in shard order** (ascending ``shard_id``), so float
  accumulation is reproducible regardless of worker completion order.
* **Workers are expendable**: a crashed or failing shard is retried once
  (fresh process), then reported in ``failed`` without sinking the run.
"""

from __future__ import annotations

import inspect
import logging
import multiprocessing as mp
import multiprocessing.connection
import os
import sys
import traceback
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..asicsim.hashing import base_hash, mix64
from ..core.silkroad import SilkRoadSwitch
from ..core.verify import AuditReport, audit_switch
from ..deploy.fleet import (
    PARTITION_EPOCH_S,
    FleetAuditReport,
    FleetPartition,
    FleetSilkRoad,
    attribute_outcomes,
    check_fleet_knobs,
    collect_structural,
    connection_outcomes,
)
from ..netsim.simulator import PRIO_INTERNAL
from ..obs import FlightRecorder, MetricRegistry, ObsHook, Timeline
from ..obs.causes import survival as count_survival
from ..options import ObsOptions
from . import fig16, fig18
from .common import build_workload

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
    """One shard of a sharded run; picklable, hashable, self-describing.

    ``params`` is a flat tuple of ``(key, value)`` pairs (primitives and
    tuples only) naming the experiment's knobs; ``obs`` is the caller's
    frozen observability option, carried as a value.
    """

    task: str
    shard_id: int
    num_shards: int
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()
    obs: ObsOptions = ObsOptions()

    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass
class ShardResult:
    """What one worker sends back: mergeable state only, no live objects."""

    shard_id: int
    registry: MetricRegistry
    audit: AuditReport
    #: registry names of the per-cell summary counters this shard wrote
    #: (:meth:`ShardedRunResult.details` prints them).
    summary: Tuple[str, ...] = ()
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
        failed = f", {len(self.failed)} shards failed" if self.failed else ""
        return (
            f"{self.task}[seed={self.seed}]: {len(self.shards)}/"
            f"{self.num_shards} shards on {self.workers} workers {state}"
            f" ({self.audit.checks_run} checks, "
            f"{len(self.audit.violations)} violations{failed}), "
            f"fingerprint {self.fingerprint[:16]}"
        )

    def details(self) -> List[str]:
        """The indented lines every printer puts under :meth:`summary`:
        timeline and recorder shape, then each per-cell summary counter,
        read from the merged registry."""
        lines = []
        if self.timeline is not None:
            lines.append(
                f"  timeline: {len(self.timeline)} epochs x "
                f"{len(self.timeline.columns)} columns, "
                f"fingerprint {self.timeline_fingerprint[:16]}"
            )
        if self.recorder is not None:
            lines.append(
                f"  recorder: {len(self.recorder)} events retained, "
                f"{self.recorder.total_dropped} dropped"
            )
        names = sorted({name for shard in self.shards for name in shard.summary})
        lines += [f"  {name}: {self.registry.get(name).value:g}" for name in names]
        return lines


def _merged_obs(pairs) -> Tuple[Optional[Timeline], Optional[FlightRecorder]]:
    """Fold, in order, ``(timeline, recorder)`` pairs (either may be ``None``)."""
    pairs = list(pairs)
    return (
        Timeline.merged(t for t, _r in pairs if t is not None),
        FlightRecorder.merged(r for _t, r in pairs if r is not None),
    )


# ----------------------------------------------------------------------
# Shard bodies (run inside worker processes; must be module-level so the
# spawn start method can re-import them)
# ----------------------------------------------------------------------


class _ShardFold:
    """One shard's mergeable state, folded in cell by cell.

    A *cell* is one run inside the shard (a fig16 system, a fig18 grid
    cell, a chaos run, a fleet plan).  Its name prefixes the cell's
    instruments in the shard registry and the timeline columns, and — as
    ``s<shard>.<cell>`` — tags its recorder, so the merged views stay
    collision-free and attributable.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.registry = MetricRegistry(
            labels={"task": spec.task, "shard": str(spec.shard_id)}
        )
        self.audit = AuditReport()
        #: registry names :meth:`count` wrote, in order.
        self.summary: List[str] = []
        #: the (timeline, recorder) of every finished run.
        self.observed: List[tuple] = []

    def cell_obs(self, cell: str) -> ObsOptions:
        """The shard's obs options with the recorder tagged for ``cell``."""
        return replace(self.spec.obs, record_source=f"s{self.spec.shard_id}.{cell}")

    def observe(self, run) -> None:
        """Keep a finished run's timeline and recorder — and nothing else of
        it, so a cell's switch or fleet is garbage once its run returns."""
        self.observed.append((run.timeline, run.recorder))

    def count(self, cell: str, key: str, value: float, help: str) -> None:
        """One per-cell summary total: the ``<cell>.<key>_total`` counter."""
        name = f"{cell}.{key}_total"
        self.registry.counter(name, help=help).inc(value)
        self.summary.append(name)

    def replay(self, cell: str, workload, factory):
        """Replay → count → audit → fold one cell; returns ``(report, lb)``
        (only a SilkRoad switch has an audit and a registry to fold)."""
        hook = ObsHook(self.cell_obs(cell), cell, workload.horizon_s, prefix=f"{cell}.")
        report, conns, lb = workload.replay(factory, attach=hook)
        self.count(
            cell, "pcc_violations", report.pcc_violations,
            "connections that broke PCC",
        )
        if isinstance(lb, SilkRoadSwitch):
            self.audit.merge(audit_switch(lb, connections=conns), label=cell)
            self.registry.merge(lb.metrics, prefix=cell)
        self.observe(hook)
        return report, lb

    def result(self) -> ShardResult:
        return ShardResult(
            self.spec.shard_id,
            self.registry,
            self.audit,
            tuple(self.summary),
            *_merged_obs(self.observed),
        )


def _run_fig16_shard(
    spec: ShardSpec,
    *,
    total_vips: int,
    shard_vips: int,
    updates_per_min: float = 10.0,
    scale: float = 1.0,
    horizon_s: float = 120.0,
    warmup_s: float = 20.0,
    insertion_rate_per_s: float = 20_000.0,
    systems: Optional[Sequence[str]] = None,
) -> ShardResult:
    """Replay this shard's VIP slice of a Figure-16-style workload.

    Both workload generators take *total* rates that they split across
    VIPs, so a shard holding ``k`` of ``V`` VIPs scales both the arrival
    knob (``scale``) and the update rate by ``k/V`` — the union of all
    shards then carries the full experiment's load.  ``systems`` names the
    :func:`fig16.default_systems` entries to replay (default: all three).
    """
    frac = shard_vips / total_vips
    workload = build_workload(
        updates_per_min=updates_per_min * frac,
        scale=scale * frac,
        seed=spec.seed,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        num_vips=shard_vips,
    )
    factories = fig16.default_systems(insertion_rate_per_s=insertion_rate_per_s)
    fold = _ShardFold(spec)
    for name in systems or factories:
        report, _lb = fold.replay(name, workload, factories[name])
        fold.count(
            name, "measured_connections", report.measured_connections,
            "connections in the window",
        )
        fold.registry.counter(
            f"{name}.connections_total", help="all replayed connections"
        ).inc(report.total_connections)
    return fold.result()


def _run_fig18_shard(
    spec: ShardSpec,
    *,
    cells: Sequence[Tuple[int, int, float]],
    base_seed: int,
    **knobs: object,
) -> ShardResult:
    """Run this shard's cells of the (filter size x timeout) grid.

    ``cells`` are ``(index in the full grid, size, timeout)``; each is built
    by :func:`fig18.cells` from the run's base seed and ``knobs`` as given,
    so a cell replays exactly what ``fig18.run`` replays for it, however
    the grid was split into shards.
    """
    fold = _ShardFold(spec)
    runs = fig18.cells([c[1:] for c in cells], base_seed, **knobs)
    for (index, _size, _timeout), (_s, _t, workload, factory) in zip(cells, runs):
        cell = f"cell{index:02d}"
        _report, lb = fold.replay(cell, workload, factory)
        fold.count(
            cell, "transit_fp_adopted", lb.transit_fp_adopted,
            "old-version adoptions via Bloom FP",
        )
    return fold.result()


def _run_chaos_shard(spec: ShardSpec, **knobs: object) -> ShardResult:
    """One independent chaos run under this shard's derived seed; ``knobs``
    go to :func:`~repro.faults.chaos.run_chaos` as given, so an absent one
    takes that signature's default and no other."""
    from ..faults.chaos import run_chaos

    fold = _ShardFold(spec)
    result = run_chaos(seed=spec.seed, obs=fold.cell_obs("chaos"), **knobs)
    for key, value, help in (
        ("faults_injected", len(result.plan), "faults in the plan"),
        ("pcc_violations", result.report.pcc_violations, "connections that broke PCC"),
        (
            "overdue_updates", result.overdue_updates,
            "updates that overran the watchdog",
        ),
    ):
        fold.count("chaos", key, value, help)
    fold.registry.merge(result.switch.metrics)
    fold.audit = result.audit
    fold.observe(result)
    return fold.result()


def fleet_cell(pattern: str, plan_index: int) -> str:
    """One fleet sweep cell's name: its registry prefix and recorder tag."""
    return f"{pattern}{plan_index:02d}"


def _fleet_cell_seed(base_seed: int, pattern: str, plan_index: int, salt: int) -> int:
    """The derived seed of one ``(pattern, plan_index)`` fleet cell.

    Keyed by the *content* of the cell — the pattern name's hash and the
    plan index — never by the cell's position in the sweep, so permuting
    the ``patterns`` tuple (or regrouping cells into shards) cannot
    silently change any cell's workload or fault plan.
    """
    pattern_h = base_hash(str(pattern).encode("utf-8"))
    return derive_shard_seed(base_seed, mix64(pattern_h, salt + plan_index) >> 1)


def _run_fleet_shard(
    spec: ShardSpec,
    *,
    cells: Sequence[Tuple[str, int]],
    base_seed: int,
    **knobs: object,
) -> ShardResult:
    """Run this shard's cells of the fleet-chaos survival sweep.

    A cell is one ``(pattern, plan_index)`` fleet run, seeded from the
    sweep's base seed and the cell's own identity (see
    :func:`_fleet_cell_seed`), so merged fingerprints depend only on the
    set of cells — never on worker count, shard count or the order the
    patterns were listed in.  ``knobs`` go to
    :func:`~repro.faults.fleet.run_fleet` as given.  The merged audit
    carries the fleet attribution requirement: any unattributed PCC
    violation or drop in any cell surfaces as a violation labelled with
    that cell.  Each cell counts what the survival table
    (:func:`~repro.experiments.fleet_failover.survival_points`) reads and
    its fleet registry does not already hold.
    """
    from ..faults.fleet import run_fleet

    fold = _ShardFold(spec)
    for pattern, plan_index in cells:
        cell = fleet_cell(pattern, plan_index)
        result = run_fleet(
            seed=_fleet_cell_seed(base_seed, pattern, plan_index, 20_000),
            fault_seed=_fleet_cell_seed(base_seed, pattern, plan_index, 30_000),
            pattern=pattern,
            obs=fold.cell_obs(cell),
            **knobs,
        )
        fleet_audit = result.audit
        # Attribution checks and unattributed buckets are already in it.
        fold.audit.merge(fleet_audit.audit, label=cell)
        survival = result.survival
        for key, value, help in (
            ("faults", len(result.plan), "faults in the plan"),
            ("measured", survival["measured"], "connections in the window"),
            ("pcc_broken", survival["broken"], "measured connections that broke PCC"),
            (
                "blackholed", survival["blackholed"],
                "measured connections blackholed intact",
            ),
            (
                "unattributed",
                fleet_audit.unattributed_violations + fleet_audit.unattributed_drops,
                "PCC violations and drops with no fleet cause",
            ),
            ("failed_audits", int(not fleet_audit.ok), "fleet audits that failed"),
        ):
            fold.count(cell, key, value, help)
        fold.registry.merge(result.fleet.merged_registry(), prefix=cell)
        fold.observe(result)
    return fold.result()


def _run_crashy_shard(
    spec: ShardSpec,
    *,
    always_fail: bool = False,
    crash_once_marker: Optional[str] = None,
) -> ShardResult:
    """Test-only task exercising the fault-tolerance path.

    ``crash_once_marker`` names a file: the one attempt that creates it
    (atomically — concurrent workers race for it and exactly one wins)
    dies without a word (``os._exit``), every other attempt and the retry
    succeed — so tests can pin the retry-once contract.  With
    ``always_fail`` the shard raises every time and must end up in
    ``failed``.
    """
    if always_fail:
        raise RuntimeError(f"shard {spec.shard_id} told to fail")
    if crash_once_marker:
        try:
            with open(crash_once_marker, "x") as fh:
                fh.write(str(spec.shard_id))
        except FileExistsError:
            pass
        else:
            os._exit(3)
    fold = _ShardFold(spec)
    fold.count("crashy", "completions", 1.0, "")
    return fold.result()


#: task -> shard body, called as ``body(spec, **params)``.
_TASKS: Dict[str, Callable[..., ShardResult]] = {
    "fig16": _run_fig16_shard,
    "fig18": _run_fig18_shard,
    "chaos": _run_chaos_shard,
    "fleet": _run_fleet_shard,
    "_crashy": _run_crashy_shard,
}

#: task -> (the ``params`` keys :func:`make_shards` turns into the layout,
#: the keywords the layout or the shard body then supplies itself).
_LAYOUT: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "fig16": (("num_vips",), ("total_vips", "shard_vips")),
    "fig18": (("sizes", "timeouts"), ("cells", "base_seed", "pairs", "seed")),
    "chaos": ((), ("seed",)),
    "fleet": (
        ("patterns", "plans_per_pattern"),
        ("cells", "base_seed", "seed", "fault_seed", "pattern"),
    ),
}


def _task_body(task: str) -> Callable[..., ShardResult]:
    if task not in _TASKS:
        raise ValueError(f"unknown shard task {task!r} (have {sorted(_TASKS)})")
    return _TASKS[task]


def _accepted_params(task: str) -> Set[str]:
    """The ``params`` keys ``task`` takes: the layout's inputs plus every
    keyword of the shard body — or, where the body forwards ``**knobs``,
    of the runner it forwards them to — that the shard does not set itself.
    Derived from the signatures, so a knob is declared once, by its runner.
    """
    sources = [_task_body(task)]
    if task == "fig18":
        sources.append(fig18.cells)
    elif task == "chaos":
        from ..faults.chaos import run_chaos

        sources.append(run_chaos)
    elif task == "fleet":
        from ..faults.fleet import run_fleet

        sources.append(run_fleet)
    names = {
        name
        for fn in sources
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind is not param.VAR_KEYWORD
    }
    layout, supplied = _LAYOUT.get(task, ((), ()))
    return (names - {"spec", "obs", *supplied}) | set(layout)


def run_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard in the current process."""
    return _task_body(spec.task)(spec, **spec.param_dict())


# ----------------------------------------------------------------------
# Worker processes (shard workers and partition replicas alike)
# ----------------------------------------------------------------------


def _spawn(target, args: tuple, duplex: bool = False):
    """Start ``target(*args, pipe_end)`` as a daemon process on a fresh
    pipe; returns ``(proc, our_end)``.

    ``spawn`` (not fork) so workers import a pristine interpreter — the
    same environment the determinism tests pin — and a crashed worker
    cannot corrupt shared state.
    """
    ctx = mp.get_context("spawn")
    ours, theirs = ctx.Pipe(duplex=duplex)
    proc = ctx.Process(target=target, args=(*args, theirs), daemon=True)
    proc.start()
    theirs.close()
    return proc, ours


def _reap(workers: Sequence[tuple]) -> None:
    """Tear down ``(proc, pipe)`` pairs: close every pipe, then stop any
    process still running (one that has shipped its result has nothing
    left to do) and join it, so no exit path leaks a worker."""
    for _proc, pipe in workers:
        pipe.close()
    for proc, _pipe in workers:
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _ship(conn, who: str, body: Callable[[], tuple]) -> None:
    """Worker side of the pipe: send ``body()``'s message, or — on any
    failure — ``("error", traceback)``.

    The failure path must never go silent: if the error payload itself
    cannot be shipped (parent gone, pipe broken), the traceback goes to
    stderr and the exception is re-raised so the worker dies non-zero — the
    parent then reports ``worker exited with code N``, not nothing.
    """
    try:
        conn.send(body())
    except BaseException:
        tb = traceback.format_exc()
        try:
            conn.send(("error", tb))
        except Exception:
            sys.stderr.write(
                f"[parallel] {who} failed and the error pipe is dead; "
                f"traceback follows\n{tb}"
            )
            sys.stderr.flush()
            raise
    finally:
        conn.close()


def _worker_main(spec: ShardSpec, conn) -> None:
    """Spawned worker entrypoint: run one shard, ship the result back."""
    _ship(conn, f"shard {spec.shard_id}", lambda: ("ok", run_shard(spec)))


# ----------------------------------------------------------------------
# Shard layout
# ----------------------------------------------------------------------

#: The ``ObsOptions`` fields: a params key spelling one is told to pass
#: ``obs=`` instead.
_OBS_FIELDS = frozenset(f.name for f in fields(ObsOptions))


def _even_split(total: int, parts: int, what: str) -> List[range]:
    """``parts`` contiguous ranges covering ``range(total)``, sizes
    differing by at most one (the larger ones first)."""
    if parts > total:
        raise ValueError(f"cannot split {total} {what} {parts} ways")
    base, extra = divmod(total, parts)
    bounds = [i * base + min(i, extra) for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _split_cells(
    cells: Sequence[tuple], num_shards: int, what: str, **own: object
) -> List[Dict[str, object]]:
    """Per-shard params handing each shard a contiguous run of ``cells``."""
    return [
        dict(own, cells=tuple(cells[part.start : part.stop]))
        for part in _even_split(len(cells), num_shards, what)
    ]


def make_shards(
    task: str,
    num_shards: int,
    seed: int,
    params: Optional[Dict[str, object]] = None,
    obs: Optional[ObsOptions] = None,
) -> List[ShardSpec]:
    """The deterministic shard layout of one run.

    Depends only on ``(task, num_shards, seed, params, obs)`` —
    never on worker count or machine — which is what makes merged
    fingerprints comparable across pool sizes.  ``params`` holds the
    experiment's knobs only, and only those given: every key is forwarded
    to the task's runner as it is and an absent one takes that runner's
    default.  A key the task does not take, an unknown fleet pattern or
    fig16 system, an out-of-range fleet knob, or an obs option spelled as
    a params key (``obs=`` being the one spelling) raises ``ValueError``
    here — in the caller's process, before any worker exists.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    params = dict(params or {})
    for key in sorted(_OBS_FIELDS & params.keys()):
        raise ValueError(
            f"{key!r} is not a shard parameter: pass it as obs= "
            "(see repro.options)"
        )
    accepted = _accepted_params(task)
    for key in sorted(params.keys() - accepted):
        raise ValueError(
            f"{key!r} is not a {task} parameter "
            f"(accepted: {', '.join(sorted(accepted))})"
        )
    if task == "fig16":
        known = fig16.default_systems()
        for name in params.get("systems") or ():
            if name not in known:
                raise ValueError(
                    f"unknown fig16 system {name!r} (have {sorted(known)})"
                )
        total_vips = int(params.pop("num_vips", 8))
        per_shard = [
            {"total_vips": total_vips, "shard_vips": len(part)}
            for part in _even_split(total_vips, num_shards, "VIPs")
        ]
    elif task == "fig18":
        pairs = fig18.grid(
            **{key: params.pop(key) for key in ("sizes", "timeouts") if key in params}
        )
        cells = [(index, size, timeout) for index, (size, timeout) in enumerate(pairs)]
        # Every cell replays the base seed's trace, as in fig18.run.
        per_shard = _split_cells(cells, num_shards, "grid cells", base_seed=int(seed))
    elif task == "fleet":
        from ..faults.fleet import FAILURE_PATTERNS, pattern_overrides

        patterns = tuple(params.pop("patterns", FAILURE_PATTERNS))
        for pattern in patterns:
            pattern_overrides(pattern)
        check_fleet_knobs(params.get("replication"), params.get("conn_budget"))
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
        per_shard = _split_cells(cells, num_shards, "fleet cells", base_seed=int(seed))
    else:  # chaos and test tasks: one derived seed per shard
        per_shard = [{} for _ in range(num_shards)]
    return [
        ShardSpec(
            task=task,
            shard_id=shard_id,
            num_shards=num_shards,
            seed=derive_shard_seed(seed, shard_id),
            params=tuple(sorted({**params, **own}.items())),
            obs=obs or ObsOptions(),
        )
        for shard_id, own in enumerate(per_shard)
    ]


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def _run_attempts(
    specs: Sequence[ShardSpec], workers: int, retries: int
) -> Tuple[List[ShardResult], List[FailedShard], int]:
    """Run every shard, retrying failed attempts ``retries`` times.

    Returns ``(results, failed, error_attempts)``.  Every failed attempt —
    retried or terminal — is logged with whatever evidence survived (the
    traceback, or the exit code of a worker that died before sending one)
    and counted, so a flaky shard leaves evidence even when its retry
    succeeds.  ``workers <= 1`` runs each attempt in this process; otherwise
    each gets a fresh spawned process, at most ``workers`` at a time.

    The wait set holds each worker's result pipe *and* its process
    sentinel: a payload bigger than the pipe buffer (recorders ship whole
    event rings) blocks the child's ``send`` until the parent drains it,
    so waiting on the sentinel alone would deadlock — the child cannot
    exit before the parent reads, and the parent would never read.
    """
    pending = deque(specs)
    attempts: Dict[int, int] = {spec.shard_id: 0 for spec in specs}
    live: Dict[object, Tuple[ShardSpec, object]] = {}
    results: List[ShardResult] = []
    failed: List[FailedShard] = []
    errors = 0
    try:
        while pending or live:
            finished: List[Tuple[ShardSpec, tuple]] = []
            if workers <= 1:
                spec = pending.popleft()
                try:
                    finished.append((spec, ("ok", run_shard(spec))))
                except Exception:
                    finished.append((spec, ("error", traceback.format_exc())))
            else:
                while pending and len(live) < workers:
                    spec = pending.popleft()
                    proc, pipe = _spawn(_worker_main, (spec,))
                    live[proc] = (spec, pipe)
                ready = set(
                    mp.connection.wait(
                        [w for proc, (_s, pipe) in live.items()
                         for w in (pipe, proc.sentinel)]
                    )
                )
                for proc, (spec, pipe) in list(live.items()):
                    if proc.sentinel not in ready and pipe not in ready:
                        continue
                    del live[proc]
                    payload = None
                    try:
                        if pipe.poll():
                            payload = pipe.recv()
                    except (EOFError, OSError):
                        payload = None
                    finally:
                        _reap([(proc, pipe)])
                    if payload is None:
                        payload = ("error", f"worker exited with code {proc.exitcode}")
                    finished.append((spec, payload))
            for spec, (status, body) in finished:
                if status == "ok":
                    results.append(body)
                    continue
                errors += 1
                attempts[spec.shard_id] += 1
                if attempts[spec.shard_id] <= retries:
                    logger.warning(
                        "shard %d attempt %d/%d failed, retrying:\n%s",
                        spec.shard_id, attempts[spec.shard_id], retries + 1, body,
                    )
                    pending.append(spec)
                else:
                    logger.error(
                        "shard %d failed after %d attempts:\n%s",
                        spec.shard_id, retries + 1, body,
                    )
                    failed.append(FailedShard(spec.shard_id, body))
    finally:
        _reap([(proc, pipe) for proc, (_s, pipe) in live.items()])
    return results, failed, errors


def run_sharded(
    task: str,
    num_shards: int = 4,
    workers: Optional[int] = None,
    seed: int = 7,
    retries: int = 1,
    params: Optional[Dict[str, object]] = None,
    obs: Optional[ObsOptions] = None,
) -> ShardedRunResult:
    """Run one experiment as ``num_shards`` deterministic shards.

    ``workers`` sizes the process pool (default: ``min(num_shards,``
    CPU count``)``); ``workers <= 1`` runs every shard in-process, which
    produces byte-identical results to any parallel pool because the
    shard layout and merge order are fixed by ``num_shards`` alone.

    ``obs`` is the shared observability option; every :class:`ShardSpec`
    carries it to its worker as it is, and every shard replays on the
    default driver.  ``params`` names the experiment's own knobs and
    nothing else.

    Every failed attempt is logged and counted in
    ``parallel.worker_errors_total``; shards still failing after the
    retry budget land in ``result.failed`` (and make ``result.ok`` false).
    """
    specs = make_shards(task, num_shards, seed, params, obs=obs)
    if workers is None:
        workers = min(num_shards, os.cpu_count() or 1)
    results, failed, errors = _run_attempts(specs, workers, retries)
    results.sort(key=lambda r: r.shard_id)
    failed.sort(key=lambda f: f.shard_id)
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
    timeline, recorder = _merged_obs((r.timeline, r.recorder) for r in results)
    return ShardedRunResult(
        task=task,
        seed=seed,
        num_shards=num_shards,
        workers=workers,
        shards=results,
        failed=failed,
        registry=registry,
        audit=audit,
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
# * Lockstep epochs of `PARTITION_EPOCH_S` (the minimum
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
    return [
        tuple(part) for part in _even_split(num_switches, num_workers, "switches")
    ]


def _partition_epochs(horizon_s: float) -> int:
    """How many barriers fit strictly inside ``[0, horizon_s]``.

    The epsilon absorbs float division noise so e.g. a 20 s horizon over
    0.05 s epochs yields exactly 400 barriers on every replica.
    """
    return max(0, int(horizon_s / PARTITION_EPOCH_S + 1e-9))


@dataclass
class _PartitionPartial:
    """One replica's mergeable share of a partitioned fleet run."""

    worker_id: int
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
    audit: FleetAuditReport
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
    partition: FleetPartition,
    run_kwargs: Dict[str, object],
    obs: ObsOptions,
    barrier: Optional[Callable[[int, Tuple[int, ...]], None]] = None,
) -> _PartitionPartial:
    """Replay the full fleet simulation as one partition's replica.

    ``barrier(epoch, digest)`` is called at every epoch boundary (spawn
    mode blocks in it until the parent has cross-checked all replicas;
    in-process mode passes none and digests are verified post-hoc at
    merge).  Barrier events are scheduled *up front*, before the replay
    starts: they shift every simulation event's heap sequence number by
    the same constant on every replica, so pairwise event ordering — and
    with it every simulated outcome — is unchanged by the epoch count.
    """
    from ..faults.fleet import resolve_fleet_run
    from ..faults.injector import FaultInjector

    fleet_kwargs = dict(run_kwargs)
    replication = fleet_kwargs.pop("replication")
    conn_budget = fleet_kwargs.pop("conn_budget")
    workload, plan, config = resolve_fleet_run(**fleet_kwargs)
    injector = FaultInjector(plan)
    epochs = _partition_epochs(workload.horizon_s)
    digests: List[Tuple[int, Tuple[int, ...]]] = []
    # Recording is per owned switch (one ring each, so the merged dump is
    # invariant to the partition width); the hook arms the sampler only.
    hook = ObsHook(replace(obs, record=False), "fleet", workload.horizon_s)

    def attach(sim, lb) -> None:
        if obs.record:
            lb.attach_partition_recorders()
        hook(sim, lb)
        for k in range(1, epochs + 1):

            def fire(kk: int = k, fleet=lb) -> None:
                digest = fleet.epoch_digest()
                digests.append((kk, digest))
                if barrier is not None:
                    barrier(kk, digest)

            sim.queue.schedule(k * PARTITION_EPOCH_S, fire, PRIO_INTERNAL)

    _report, connections, fleet = workload.replay(
        lambda: FleetSilkRoad(
            num_switches=run_kwargs["num_switches"],
            config=config,
            partition=partition,
            replication=replication,
            conn_budget=conn_budget,
        ),
        faults=injector,
        attach=attach,
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
    return _PartitionPartial(
        worker_id=partition.worker_id,
        registry=fleet.merged_registry(),
        audit=structural,
        predicted=set(predicted),
        outcomes=connection_outcomes(connections),
        move_causes=move_causes,
        drop_causes=drop_causes,
        counters=counters,
        conn_entries=conn_entries,
        epoch_digests=tuple(digests),
        timeline=hook.timeline,
        recorder=FlightRecorder.merged(fleet.partition_recorders()),
    )


def _partition_worker_main(
    partition: FleetPartition,
    run_kwargs: Dict[str, object],
    obs: ObsOptions,
    conn,
) -> None:
    """Spawned partition worker: replay one replica, barrier over the pipe.

    Protocol (duplex pipe): ``("epoch", k, digest)`` up at each barrier,
    blocking until the parent's ``"go"`` comes back; ``("done", partial)``
    after the run; ``("error", traceback)`` on any failure (:func:`_ship`).
    """
    who = f"partition worker {partition.worker_id}"

    def barrier(k: int, digest: Tuple[int, ...]) -> None:
        conn.send(("epoch", k, digest))
        reply = conn.recv()
        if reply != "go":
            raise RuntimeError(
                f"{who}: unexpected barrier reply {reply!r} at epoch {k}"
            )

    def replica() -> tuple:
        return "done", _run_partition_replica(partition, run_kwargs, obs, barrier)

    _ship(conn, who, replica)


def _run_partition_pool(
    partitions: Sequence[FleetPartition], replica_args: tuple, epochs: int
) -> List[_PartitionPartial]:
    """Drive one spawned replica per partition through lockstep epochs.

    The parent is the barrier: each epoch it collects every replica's
    digest, verifies replica agreement, and releases the round with
    ``"go"``.  A dead worker (EOF on its pipe) or a digest mismatch
    aborts the whole run — a partitioned result must never silently
    omit a partition.
    """
    num_workers = len(partitions)
    workers: List[tuple] = []
    try:
        for partition in partitions:
            workers.append(
                _spawn(
                    _partition_worker_main, (partition, *replica_args), duplex=True
                )
            )
        pipes = [pipe for _proc, pipe in workers]

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
        return [receive(worker_id, "done")[1] for worker_id in range(num_workers)]
    finally:
        _reap(workers)


def run_fleet_partitioned(
    partition_workers: int = 1,
    in_process: Optional[bool] = None,
    *,
    obs: Optional[ObsOptions] = None,
    **knobs: object,
) -> FleetPartitionedResult:
    """One fleet chaos run, space-partitioned over ``partition_workers``.

    ``knobs`` are :func:`repro.faults.fleet.run_fleet`'s scenario keywords
    — its names, its defaults, declared there and nowhere else — except a
    prebuilt ``workload``: every replica rebuilds its inputs from the
    scalar knobs.  The partition layout comes from
    :func:`partition_switches` and depends only on ``(num_switches,
    partition_workers)``, so the merged registry, timeline, recorder and
    audit fingerprints are bit-identical for every worker count (asserted
    by tests/experiments/test_partition.py).  ``in_process`` (default:
    ``partition_workers == 1``) runs the replicas sequentially in this
    process — same results, no pool — with digests cross-checked post-hoc
    instead of per epoch.  ``obs`` is the observability option; every
    replica replays on the default driver.
    """
    from ..faults.fleet import pattern_overrides, run_fleet

    obs = obs or ObsOptions()
    # Bound against run_fleet's own signature: a name it lacks is the usual
    # TypeError, an absent knob takes its default.
    bound = inspect.signature(run_fleet).bind_partial(**knobs)
    bound.apply_defaults()
    run_kwargs = dict(bound.arguments)
    del run_kwargs["obs"]
    if run_kwargs.pop("workload") is not None:
        raise TypeError("run_fleet_partitioned() takes no prebuilt workload")
    # An unknown pattern or an out-of-range fleet knob is the caller's
    # error: say so here, not from inside a spawned replica.
    pattern_overrides(run_kwargs["pattern"])
    check_fleet_knobs(run_kwargs["replication"], run_kwargs["conn_budget"])
    seed, fault_seed = run_kwargs["seed"], run_kwargs["fault_seed"]
    num_switches = run_kwargs["num_switches"]
    owned_sets = partition_switches(num_switches, partition_workers)
    epochs = _partition_epochs(run_kwargs["horizon_s"])
    if in_process is None:
        in_process = partition_workers == 1
    partitions = [
        FleetPartition(owned=owned, worker_id=i, num_workers=partition_workers)
        for i, owned in enumerate(owned_sets)
    ]
    replica_args = (run_kwargs, obs)
    if in_process:
        partials = [_run_partition_replica(p, *replica_args) for p in partitions]
    else:
        partials = _run_partition_pool(partitions, replica_args, epochs)
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
    outcomes = [
        (key, len(row[0]) > 1 and not row[2], bool(row[1]), row[3])
        for key, row in merged_rows.items()
    ]
    survival = count_survival((start, v, d) for _key, v, d, start in outcomes)
    primary = partials[0]
    audit = attribute_outcomes(
        structural,
        ((key, v, d) for key, v, d, _start in outcomes),
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
    timeline, recorder = _merged_obs((p.timeline, p.recorder) for p in partials)
    return FleetPartitionedResult(
        pattern=run_kwargs["pattern"],
        seed=seed,
        fault_seed=fault_seed if fault_seed is not None else seed + 2000,
        num_switches=num_switches,
        workers=partition_workers,
        partitions=owned_sets,
        epochs=epochs,
        epoch_length_s=PARTITION_EPOCH_S,
        registry=registry,
        audit=audit,
        survival=survival,
        counters=counters,
        timeline=timeline,
        recorder=recorder,
    )
