"""The metric catalogue: what the benchmark reports, in which unit, which
way is better, how far it may worsen, and which end-to-end number each
layer metric is expected to move (the ``moves`` table).

Two views of one catalogue:

* :data:`END_TO_END` — the eight numbers a user of the system sees.
  Host-time ones carry a regression bound; simulated ones must repeat
  exactly for a given seed.  ``perf/compare.py`` enforces all of them.
* :func:`manifest` — the ``BENCHMARK.json`` the builder's driver reads.
  Its contract wants every ``end_to_end`` metric on every workload and
  never 0, so only the three host-time metrics that exist everywhere
  (``setup_s``, ``conns_per_s``, ``peak_rss_mb``) are listed there as
  ``end_to_end``; the other five (``ctl_ms_p50`` is serve-only, the
  simulated ones are exact and mostly 0) ride in its ``per_layer`` list,
  which has neither rule.  Nothing is lost: ``compare.py`` still holds
  them to the bounds below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .trace import ROOT_SPAN, SPAN_NAMES

WORKLOADS: Dict[str, str] = {
    "pop_steady": "PoP trace, CPU keeps up, table 2% full: arrival kernel, learning "
    "filter, install chain and idle expiry do the work; TransitTable idle",
    "pop_steady_obs": "same inputs with flight recorder + 5 s timeline armed: the obs "
    "layer as a writer, and the scalar arrival path a recorder forces",
    "slow_cpu_updates": "insertion rate 0.92x arrival rate, 60 updates/min: backlog grows, "
    "updates queue, ~75% of arrivals touch the TransitTable (the paper's core regime)",
    "full_table": "long-lived flows fill a 24 K-entry ConnTable to 0.98: inserts take the "
    "cuckoo BFS/move/overflow path and live per-connection state drives memory",
    "fleet_mixed": "8-switch fleet under mixed faults: routing, failover, fault injection "
    "and the fleet audit carry weight; single-switch work is diluted 8 ways",
    "serve_migration": "ServeSession behind ControlServer on loopback, closed loop, 1 "
    "client: 240 advance+read cycles and a rolling DIP migration over real HTTP",
}

#: Metrics taken from the simulation rather than the host clock: the same
#: seed must give the same value bit for bit.
SIM = "sim"
HOST = "host"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the base median by which it may worsen (host metrics).
    bound: Optional[float] = None
    kind: str = HOST
    #: workloads that report it (``None`` = all).
    workloads: Optional[Tuple[str, ...]] = None
    #: listed as ``end_to_end`` in BENCHMARK.json (else under ``per_layer``).
    driver: bool = False
    #: (end-to-end metric, workload) pairs this layer metric should move.
    moves: Tuple[Tuple[str, str], ...] = ()

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


_SINGLE_SWITCH = ("pop_steady", "pop_steady_obs", "slow_cpu_updates", "full_table")

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25, driver=True),
    Metric("conns_per_s", "1/s", "higher", bound=0.15, driver=True),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.05, driver=True),
    Metric("ctl_ms_p50", "ms", "lower", bound=0.15, workloads=("serve_migration",)),
    Metric("sim_update_s_p50", "s", "lower", kind=SIM, workloads=_SINGLE_SWITCH),
    Metric("pcc_violations", "count", "lower", kind=SIM),
    Metric("unattributed", "count", "lower", kind=SIM),
    Metric("failed_share", "ratio", "lower", kind=SIM),
)


def _span_moves(span: str) -> Tuple[Tuple[str, str], ...]:
    """The interaction table, by span prefix (first match wins)."""
    table = (
        (("experiments.common.", "netsim.arrivals.", "netsim.updates."),
         (("setup_s", "pop_steady"),)),
        (("core.transit_table.", "core.pcc_update.", "core.dip_pool_table.mutate",
          "core.dip_pool_table.refcount", "core.silkroad.apply_update"),
         (("conns_per_s", "slow_cpu_updates"), ("sim_update_s_p50", "slow_cpu_updates"))),
        (("core.conn_table.insert", "core.conn_table.relocate_colliding_entry"),
         (("conns_per_s", "full_table"), ("peak_rss_mb", "full_table"))),
        (("obs.recorder.", "obs.timeline."), (("conns_per_s", "pop_steady_obs"),)),
        (("obs.export.", "serve.http.", "serve.session.read", "serve.session.mutate"),
         (("ctl_ms_p50", "serve_migration"),)),
        (("serve.",), (("conns_per_s", "serve_migration"),)),
        (("deploy.fleet.", "core.verify."), (("conns_per_s", "fleet_mixed"),)),
        # arrival kernel, hashing, batch columns, learning filter, CPU
        # submission, event heap, end/finalize, selection, driver loop.
        (("",), (("conns_per_s", "pop_steady"),)),
    )
    for prefixes, moves in table:
        if span.startswith(prefixes):
            return moves
    raise AssertionError(span)


def _layer_metrics() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for span in SPAN_NAMES + (ROOT_SPAN,):
        moves = _span_moves(span)
        out.append(Metric(f"{span}.self_s", "s", "lower", moves=moves))
        if span != ROOT_SPAN:
            out.append(Metric(f"{span}.calls", "count", "lower", kind=SIM, moves=moves))
    pop = (("conns_per_s", "pop_steady"),)
    slow = (("conns_per_s", "slow_cpu_updates"), ("sim_update_s_p50", "slow_cpu_updates"))
    full = (("conns_per_s", "full_table"), ("peak_rss_mb", "full_table"))
    fleet = (("conns_per_s", "fleet_mixed"),)
    ctl = (("ctl_ms_p50", "serve_migration"),)
    counts = (
        ("netsim.events.fired_per_conn", "ratio", "lower", SIM, pop),
        ("core.conn_table.load_peak", "ratio", "lower", SIM, full),
        ("core.conn_table.moves_per_insert", "ratio", "lower", SIM, full),
        ("core.conn_table.fp_lookups", "count", "lower", SIM, pop),
        ("core.conn_table.table_full_events", "count", "lower", SIM, full),
        ("asicsim.learning_filter.events_per_batch", "ratio", "higher", SIM, pop),
        ("core.control_plane.backlog_peak", "count", "lower", SIM, slow),
        ("core.transit_table.marks", "count", "lower", SIM, slow),
        ("core.transit_table.checks", "count", "lower", SIM, slow),
        ("core.transit_table.fp_ratio", "ratio", "lower", SIM, slow),
        ("core.pcc_update.updates_queued", "count", "lower", SIM, slow),
        ("core.pcc_update.step1_s_p50", "s", "lower", SIM, slow),
        ("core.pcc_update.step2_s_p50", "s", "lower", SIM, slow),
        ("obs.recorder.dropped", "count", "lower", SIM, (("conns_per_s", "pop_steady_obs"),)),
        ("deploy.fleet.rehomed", "count", "lower", SIM, fleet),
        ("deploy.fleet.blackholed", "count", "lower", SIM, fleet),
        ("serve.http.read_ms_p50", "ms", "lower", HOST, ctl),
        ("serve.http.write_ms_p50", "ms", "lower", HOST, ctl),
        ("serve.http.ctl_ms_p90", "ms", "lower", HOST, ctl),
        ("serve.http.ctl_ms_p99", "ms", "lower", HOST, ctl),
        ("netsim.driver.scalar_over_default", "ratio", "higher", HOST, pop),
        ("experiments.parallel.partition1_over_serial", "ratio", "lower", HOST, fleet),
        ("bench.trace.overhead_frac", "ratio", "lower", HOST, pop),
    )
    out.extend(Metric(n, u, b, kind=k, moves=m) for n, u, b, k, m in counts)
    drill_moves = {
        "base_hash_many": pop,
        "conn_table_lookup_miss": pop,
        "conn_table_insert_2pct": pop,
        "conn_table_insert_95pct": full,
        "learning_filter_offer": pop,
        "transit_mark_check": slow,
        "event_schedule_step": pop,
        "dip_pool_select": pop,
    }
    out.extend(
        Metric(f"drill.{name}.ns_per_op", "ns", "lower", moves=moves)
        for name, moves in drill_moves.items()
    )
    return tuple(out)


#: Per-layer metrics of a traced run, in catalogue order.
LAYERS: Tuple[Metric, ...] = _layer_metrics()


def driver_end_to_end() -> Tuple[Metric, ...]:
    return tuple(m for m in END_TO_END if m.driver)


def driver_per_layer() -> Tuple[Metric, ...]:
    """What a ``--trace 1`` run reports: the end-to-end metrics the
    driver's contract cannot carry, then the layer metrics."""
    return tuple(m for m in END_TO_END if not m.driver) + LAYERS


#: Seconds of timed work per driver run (``run_seconds`` in the manifest).
RUN_SECONDS = 12


def manifest(run_seconds: int = RUN_SECONDS) -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in driver_per_layer()
        ],
    }


def moves_table() -> Dict[str, List[List[str]]]:
    """Layer metric -> [[end-to-end metric, workload], ...]."""
    return {m.name: [list(pair) for pair in m.moves] for m in LAYERS}


if __name__ == "__main__":
    # python -m perf.metrics > BENCHMARK.json
    print(json.dumps(manifest(), indent=2))
