#!/usr/bin/env python3
"""Quickstart: drive one SilkRoad switch directly through the public API.

Announces a VIP with a pool of backends, pushes a few connections through
the switch, performs a DIP-pool update mid-stream, and shows that every
connection keeps hitting its original backend — per-connection consistency
(PCC), the property the paper is about.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    Connection,
    DirectIP,
    TupleFactory,
    UpdateEvent,
    UpdateKind,
    VirtualIP,
)


def main() -> None:
    # --- 1. Build a switch.  The config mirrors the paper's defaults
    # (16-bit digests, 6-bit pool versions, 256-byte TransitTable); we
    # shrink the ConnTable for a quick demo.
    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=10_000))

    # --- 2. Announce a service: one VIP, three backend DIPs.
    vip = VirtualIP.parse("20.0.0.1:80")
    dips = [DirectIP.parse(f"10.0.0.{i}:8080") for i in (1, 2, 3)]
    switch.announce_vip(vip, dips)
    print(f"announced {vip} -> {[str(d) for d in dips]}")

    # --- 3. Open a handful of client connections.
    factory = TupleFactory()
    connections = []
    for i in range(8):
        conn = Connection(
            conn_id=i,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=switch.queue.now,
            duration=3600.0,  # long-lived, so the update matters
        )
        switch.on_connection_arrival(conn)
        connections.append(conn)
        print(f"  conn {i}: first packet -> {conn.decisions[-1][1]}")

    # Let the switch CPU drain the learning filter and install the entries.
    switch.queue.run_until(switch.queue.now + 1.0)
    print(f"ConnTable now holds {len(switch.conn_table)} entries")

    # --- 4. Update the DIP pool: take 10.0.0.2 down for an upgrade and
    # bring a replacement up.  SilkRoad runs its 3-step PCC update.
    switch.apply_update(
        UpdateEvent(switch.queue.now, vip, UpdateKind.REMOVE, dips[1])
    )
    switch.apply_update(
        UpdateEvent(
            switch.queue.now, vip, UpdateKind.ADD, DirectIP.parse("10.0.0.9:8080")
        )
    )
    switch.queue.run_until(switch.queue.now + 1.0)
    print(
        f"applied 2 updates; current pool version "
        f"v{switch.dip_pools.current_version(vip)}, live versions "
        f"{switch.dip_pools.live_versions(vip)}"
    )

    # --- 5. Check per-connection consistency.
    broken = [c for c in connections if c.pcc_violated]
    removed_dip = dips[1]
    for conn in connections:
        dips_seen = [str(d) for d in conn.distinct_dips()]
        status = "BROKEN" if conn.pcc_violated else (
            "on removed DIP" if conn.broken_by_removal else "consistent"
        )
        print(f"  conn {conn.conn_id}: {dips_seen} ({status})")
    print(
        f"\nPCC violations: {len(broken)} of {len(connections)} "
        f"(connections that were on {removed_dip} broke with their server, "
        "which no load balancer can prevent)"
    )
    assert not broken, "SilkRoad must never re-hash a live connection"


if __name__ == "__main__":
    main()
