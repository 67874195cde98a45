#!/usr/bin/env python3
"""Operational telemetry: watch a SilkRoad switch ride through load + churn.

Arms the timeline sampler on a switch while it absorbs a connection
workload and a burst of DIP-pool updates, then prints per-metric summaries
and ASCII sparklines — the view an operator's dashboard would give.

Run:  python examples/telemetry.py
"""

from __future__ import annotations

from repro.analysis import format_table, sparkline
from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateGenerator,
    make_cluster,
    spare_pool,
    uniform_vip_workloads,
)
from repro.obs import ObsHook
from repro.options import ObsOptions

HORIZON = 180.0
#: The registry instruments an operator watches (every instrument is sampled).
WATCHED = (
    "conn_table.occupancy",
    "conn_table.load_factor",
    "switch.pending_connections",
    "switch_cpu.backlog",
    "switch.sram_bytes",
)


def main() -> None:
    cluster = make_cluster(num_vips=6, dips_per_vip=12)
    switch = SilkRoadSwitch(
        SilkRoadConfig(conn_table_capacity=60_000, insertion_rate_per_s=30_000.0)
    )
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)

    connections = ArrivalGenerator(seed=21).generate(
        uniform_vip_workloads(cluster.vips, 25_000.0), horizon_s=HORIZON, warmup_s=20.0
    ).records()
    updates = UpdateGenerator(seed=22).poisson_updates(
        cluster.pools(), updates_per_min=30.0, horizon_s=HORIZON,
        spare_dips=spare_pool(cluster),
    )

    simulator = FlowSimulator(switch)
    hook = ObsHook(ObsOptions(timeline_period_s=2.0), "example", HORIZON)
    hook(simulator, switch)

    report = simulator.run(connections, updates, horizon_s=HORIZON)

    timeline = hook.timeline
    summary = timeline.summary()
    rows = []
    for name in WATCHED:
        stats = summary[name]
        rows.append(
            (
                name,
                f"{stats['min']:.0f}",
                f"{stats['mean']:.0f}",
                f"{stats['max']:.0f}",
                sparkline(timeline.column(name)),
            )
        )
    print(
        format_table(
            ("metric", "min", "mean", "max", "timeline"),
            rows,
            title=f"telemetry over {HORIZON:.0f}s ({len(connections)} connections, "
            f"{len(updates)} updates)",
        )
    )
    print()
    print(report.summary())
    print(
        f"updates completed: {switch.coordinator.updates_completed}"
        f"/{switch.coordinator.updates_requested}; "
        f"peak CPU backlog: {summary['switch_cpu.backlog']['max']:.0f} entries"
    )


if __name__ == "__main__":
    main()
