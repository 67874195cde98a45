#!/usr/bin/env python3
"""Network-wide deployment: place VIPs across fabric layers (§5.3).

Builds a ToR/Agg/Core fabric, generates a skewed set of VIP demands, and
runs the paper's bin-packing heuristic: each VIP's load-balancing function
is assigned to one layer, splitting its traffic and connection state over
that layer's switches via ECMP, minimizing the hottest switch's SRAM
utilization.  Also shows incremental deployment (only some switches
SilkRoad-enabled) and the switch-failure exposure arithmetic of §7.

Run:  python examples/network_wide.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.deploy import (
    VipDemand,
    assign_vips,
    health_check_bandwidth_bps,
    switch_failure_breakage,
)
from repro.netsim.packet import VirtualIP
from repro.netsim.topology import Fabric, Layer


def make_demands(seed: int = 5, count: int = 60):
    rng = np.random.default_rng(seed)
    demands = []
    for i in range(count):
        conns = float(rng.lognormal(mean=np.log(4e5), sigma=1.4))
        gbps = float(rng.lognormal(mean=np.log(8.0), sigma=1.0))
        demands.append(
            VipDemand(
                vip=VirtualIP.parse(f"20.0.{i // 256}.{i % 256}:80"),
                connections=conns,
                traffic_gbps=gbps,
            )
        )
    return demands


def main() -> None:
    fabric = Fabric.build(
        num_tors=16, num_aggs=4, num_cores=2,
        tor_sram_bytes=20_000_000,  # 20 MB of each ToR earmarked for LB
        agg_sram_bytes=50_000_000,
        core_sram_bytes=100_000_000,
    )
    demands = make_demands()
    result = assign_vips(fabric, demands)

    per_layer = {layer: 0 for layer in Layer}
    for vip, layer in result.placement.assignment.items():
        per_layer[layer] += 1
    rows = []
    for layer in Layer:
        switches = fabric.layer_switches(layer)
        peak = max(
            result.sram_used[s.name] / s.sram_budget_bytes for s in switches
        )
        rows.append(
            (layer.value, len(switches), per_layer[layer], f"{100 * peak:.1f}")
        )
    print(
        format_table(
            ("layer", "switches", "VIPs assigned", "peak SRAM util %"),
            rows,
            title=f"VIP-to-layer assignment ({len(demands)} VIPs, "
            f"{len(result.unplaced)} unplaced)",
        )
    )
    print(
        f"max SRAM utilization across the fabric: "
        f"{100 * result.max_sram_utilization(fabric):.1f}%"
    )

    # --- Incremental deployment: only 4 ToRs and the cores are enabled.
    partial = assign_vips(
        fabric,
        demands,
        enabled={
            Layer.TOR: fabric.tors[:4],
            Layer.AGG: [],
            Layer.CORE: fabric.cores,
        },
    )
    print(
        f"\nincremental deployment (4 ToRs + cores): "
        f"{len(partial.placement.assignment)} placed, "
        f"{len(partial.unplaced)} unplaced, max util "
        f"{100 * partial.max_sram_utilization(fabric):.1f}%"
    )

    # --- §7 operational arithmetic.
    total_dips = 10_000
    print(
        f"\nhealth-checking {total_dips} DIPs every 10 s costs "
        f"{health_check_bandwidth_bps(total_dips) / 1e3:.0f} Kb/s per switch"
    )
    exposure = switch_failure_breakage(
        {6: 800_000, 5: 150_000, 4: 50_000}, latest_version=6
    )
    print(
        f"losing a switch whose connections sit 80/15/5 % on versions "
        f"v6/v5/v4 exposes {100 * exposure:.0f}% of them to re-hashing "
        "(only old-version connections; the rest map identically elsewhere)"
    )

    # --- §7 live: fail one switch of a 4-wide SilkRoad layer mid-run.
    # The fleet detects failures by heartbeat; the paper's arithmetic
    # assumes instant detection, so this caller plays the oracle: crash the
    # switch and declare it down at the same instant.
    from repro.core import SilkRoadConfig
    from repro.deploy import FleetSilkRoad, audit_fleet
    from repro.netsim import (
        ArrivalGenerator,
        FlowSimulator,
        make_cluster,
        uniform_vip_workloads,
    )
    from repro.netsim.simulator import PRIO_INTERNAL

    cluster = make_cluster(num_vips=3, dips_per_vip=8)
    layer = FleetSilkRoad(
        num_switches=4, config=SilkRoadConfig(conn_table_capacity=50_000)
    )
    for service in cluster.services:
        layer.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=9).generate(
        uniform_vip_workloads(cluster.vips, 6_000.0), horizon_s=90.0
    ).records()

    def fail_switch_2() -> None:
        layer.inject_switch_crash(2)
        layer.declare_down(2)

    sim = FlowSimulator(layer)
    sim.queue.schedule(60.0, fail_switch_2, PRIO_INTERNAL)
    report = sim.run(conns, horizon_s=90.0)
    print(
        f"\nlive failover: switch 2 of 4 died at t=60s; "
        f"{layer.handoffs} connections re-ECMPed, "
        f"{report.pcc_violations} broke PCC (same latest VIPTable everywhere)"
    )
    print(audit_fleet(layer, conns))


if __name__ == "__main__":
    main()
