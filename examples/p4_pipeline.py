#!/usr/bin/env python3
"""Packet-level walkthrough of the P4 SilkRoad pipeline (§5.1, Figure 10).

Builds real Ethernet/IP/TCP frames, pushes them through the P4-style
SilkRoad program, and narrates each table decision: VIPTable version
lookup, the per-stage ConnTable probes, TransitTable consultation during a
3-step update, and the versioned DIP-pool rewrite.  Finally mirrors a live
object-model switch into the P4 tables and verifies both planes forward
identically.

Run:  python examples/p4_pipeline.py
"""

from __future__ import annotations

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import Connection, DirectIP, TupleFactory, VirtualIP
from repro.p4 import SilkRoadP4, UPDATE_STEP2, build_packet


def narrate(result, label: str) -> None:
    bits = []
    bits.append("ConnTable HIT" if result.conn_table_hit else "ConnTable miss")
    if result.transit_hit:
        bits.append("TransitTable HIT (old version)")
    if result.learned:
        bits.append("learn event")
    if result.redirected_to_cpu:
        bits.append("redirected to CPU")
    print(f"  {label}: -> {result.dip} v{result.version}  [{', '.join(bits)}]")


def main() -> None:
    vip = VirtualIP.parse("20.0.0.1:80")
    dips = [DirectIP.parse(f"10.0.0.{i}:8080") for i in (1, 2, 3, 4)]
    factory = TupleFactory()

    # --- 1. Program the pipeline directly (as the switch CPU would).
    p4 = SilkRoadP4()
    p4.program_vip(vip, version=0)
    p4.program_pool(vip, 0, dips)
    print(f"programmed {vip} -> pool v0 with {len(dips)} DIPs")

    conn = factory.next_for(vip)
    syn = build_packet(conn, syn=True)
    narrate(p4.process(syn), "SYN of a new connection  ")

    # Install the learned connection, pinned to version 0.
    stage, _bucket, _digest, key = p4.learned_digests[-1]
    p4.install_connection(key, stage=0, version=0)
    narrate(p4.process(build_packet(conn)), "follow-up packet          ")

    # --- 2. A 3-step update reaches step 2: VIPTable carries both
    # versions, pending connections are marked in the TransitTable.
    pending = factory.next_for(vip)
    p4.program_pool(vip, 1, dips[1:])  # version 1: first DIP removed
    p4.program_vip(vip, version=1, old_version=0, update_state=UPDATE_STEP2)
    p4.transit_mark(pending.key_bytes())
    print("\nDIP pool update in step 2 (old v0, new v1):")
    narrate(p4.process(build_packet(pending)), "pending conn (marked)     ")
    narrate(p4.process(build_packet(factory.next_for(vip))), "brand new conn            ")
    narrate(p4.process(build_packet(conn)), "installed conn            ")

    # --- 3. Equivalence with the object model: mirror a live switch.
    print("\nmirroring a live SilkRoadSwitch into the P4 tables:")
    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=10_000))
    switch.announce_vip(vip, dips)
    conns = []
    for i in range(200):
        c = Connection(
            conn_id=i,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=switch.queue.now,
            duration=3600.0,
        )
        switch.on_connection_arrival(c)
        conns.append(c)
    switch.queue.run_until(switch.queue.now + 1.0)

    mirrored = SilkRoadP4.mirror(switch)
    agree = sum(
        1
        for c in conns
        if mirrored.process(build_packet(c.five_tuple)).dip == c.decisions[-1][1]
    )
    print(f"  {agree}/{len(conns)} packets forwarded identically by both planes")
    assert agree == len(conns)


if __name__ == "__main__":
    main()
