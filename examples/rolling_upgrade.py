#!/usr/bin/env python3
"""Rolling service upgrade: SilkRoad vs Duet vs stateless ECMP.

Reproduces the paper's motivating scenario (§3.1): a Backend service
upgrades all its DIPs with a rolling reboot (two DIPs every period, each
back after a sampled downtime) while clients keep connecting.  The same
workload replays against four load balancers and the script reports how
many connections each one broke.

Run:  python examples/rolling_upgrade.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.baselines import DuetLoadBalancer, EcmpLoadBalancer, MigrationPolicy
from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    RollingUpgrade,
    make_cluster,
    uniform_vip_workloads,
)
from repro.netsim.updates import DowntimeModel

HORIZON_S = 420.0


def build_workload(seed: int = 11):
    cluster = make_cluster(name="backend-0", num_vips=1, dips_per_vip=16)
    service = cluster.services[0]
    connections = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads([service.vip], 12_000.0),
        horizon_s=HORIZON_S,
        warmup_s=30.0,
    ).records()
    upgrade = RollingUpgrade(
        vip=service.vip,
        dips=service.dips,
        start=30.0,
        batch_size=2,
        period_s=40.0,
        downtime=DowntimeModel(median_s=25.0, p99_s=60.0),
    )
    updates = upgrade.events(np.random.default_rng(seed))
    return cluster, connections, updates


def replay(factory, seed: int = 11):
    cluster, connections, updates = build_workload(seed)
    lb = factory()
    for service in cluster.services:
        lb.announce_vip(service.vip, service.dips)
    report = FlowSimulator(lb).run(connections, updates, horizon_s=HORIZON_S)
    on_removed = sum(1 for c in connections if c.broken_by_removal)
    return report, on_removed, len(updates)


def main() -> None:
    systems = {
        "SilkRoad": lambda: SilkRoadSwitch(
            SilkRoadConfig(conn_table_capacity=200_000), name="silkroad"
        ),
        "SilkRoad (no TransitTable)": lambda: SilkRoadSwitch(
            SilkRoadConfig(
                conn_table_capacity=200_000,
                use_transit_table=False,
                insertion_rate_per_s=5_000.0,
                learning_filter_timeout_s=5e-3,
            ),
            name="silkroad-no-tt",
        ),
        "Duet (migrate every 60s)": lambda: DuetLoadBalancer(
            name="duet", policy=MigrationPolicy.PERIODIC, migrate_period_s=60.0
        ),
        "stateless ECMP": lambda: EcmpLoadBalancer(name="ecmp"),
    }
    rows = []
    for label, factory in systems.items():
        report, on_removed, num_updates = replay(factory)
        rows.append(
            (
                label,
                report.measured_connections,
                report.pcc_violations,
                f"{100 * report.violation_fraction:.4f}",
                on_removed,
            )
        )
    print(
        format_table(
            (
                "system",
                "connections",
                "broken by LB",
                "% broken",
                "on rebooted DIPs",
            ),
            rows,
            title=f"Rolling upgrade of 16 DIPs ({num_updates} pool updates)",
        )
    )
    print(
        "\n'on rebooted DIPs' connections break with their server no matter "
        "what;\nthe 'broken by LB' column is what the load balancer adds on "
        "top — SilkRoad adds none."
    )


if __name__ == "__main__":
    main()
