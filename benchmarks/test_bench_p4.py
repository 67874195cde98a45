"""Benchmarks for the P4 data plane: forwarding throughput + equivalence."""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import Connection, TupleFactory, make_cluster
from repro.p4 import SilkRoadP4, build_packet


@pytest.fixture(scope="module")
def programmed_pipeline():
    cluster = make_cluster(num_vips=4, dips_per_vip=8)
    p4 = SilkRoadP4()
    for service in cluster.services:
        p4.program_vip(service.vip, version=0)
        p4.program_pool(service.vip, 0, service.dips)
    factory = TupleFactory()
    frames = [
        build_packet(factory.next_for(cluster.vips[i % 4]), syn=True)
        for i in range(500)
    ]
    return p4, frames


def test_bench_p4_forwarding(benchmark, programmed_pipeline):
    p4, frames = programmed_pipeline

    def forward_all():
        forwarded = 0
        for frame in frames:
            if p4.process(frame).forwarded:
                forwarded += 1
        return forwarded

    forwarded = benchmark(forward_all)
    assert forwarded == len(frames)


def test_bench_p4_object_model_equivalence(once):
    def run():
        cluster = make_cluster(num_vips=3, dips_per_vip=6)
        switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=20_000))
        for service in cluster.services:
            switch.announce_vip(service.vip, service.dips)
        factory = TupleFactory()
        conns = []
        for i in range(800):
            conn = Connection(
                conn_id=i,
                key=factory.next_for(cluster.vips[i % 3]).key_bytes(),
                vip=cluster.vips[i % 3],
                start=switch.queue.now,
                duration=3600.0,
            )
            switch.on_connection_arrival(conn)
            conns.append(conn)
        switch.queue.run_until(switch.queue.now + 1.0)
        p4 = SilkRoadP4.mirror(switch)
        return sum(
            1
            for c in conns
            if p4.process(build_packet(c.five_tuple)).dip == c.decisions[-1][1]
        ), len(conns)

    agree, total = once(run)
    assert agree == total  # bit-for-bit forwarding equivalence
