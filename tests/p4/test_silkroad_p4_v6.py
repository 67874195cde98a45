"""IPv6 end-to-end tests for the P4 SilkRoad pipeline (Backends are
mostly IPv6 in the paper's fleet)."""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import Connection, TupleFactory, make_cluster
from repro.netsim.cluster import ClusterType
from repro.p4 import SilkRoadP4, build_packet, parse_packet


@pytest.fixture(scope="module")
def v6_setup():
    cluster = make_cluster(kind=ClusterType.BACKEND, num_vips=2, dips_per_vip=5)
    switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=5000))
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    factory = TupleFactory()
    conns = []
    for i in range(40):
        vip = cluster.vips[i % 2]
        conn = Connection(
            conn_id=i,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=switch.queue.now,
            duration=3600.0,
        )
        switch.on_connection_arrival(conn)
        conns.append(conn)
    switch.queue.run_until(switch.queue.now + 1.0)
    return cluster, switch, conns, factory


class TestV6Pipeline:
    def test_v6_frames_parse(self, v6_setup):
        _cluster, _switch, conns, _factory = v6_setup
        frame = build_packet(conns[0].five_tuple)
        ctx = parse_packet(frame)
        assert ctx.is_valid("ipv6") and not ctx.is_valid("ipv4")
        assert ctx.five_tuple_bytes() == conns[0].five_tuple.key_bytes()
        assert len(conns[0].five_tuple.key_bytes()) == 37  # IPv6 key width

    def test_v6_equivalence_with_object_model(self, v6_setup):
        _cluster, switch, conns, _factory = v6_setup
        p4 = SilkRoadP4.mirror(switch)
        for conn in conns:
            result = p4.process(build_packet(conn.five_tuple))
            assert not result.dropped
            assert result.dip == conn.decisions[-1][1]
            assert result.dip.v6

    def test_new_v6_connection(self, v6_setup):
        cluster, switch, _conns, factory = v6_setup
        p4 = SilkRoadP4.mirror(switch)
        vip = cluster.vips[0]
        ft = factory.next_for(vip)
        result = p4.process(build_packet(ft, syn=True))
        expected = switch.dip_pools.select(
            vip, switch.dip_pools.current_version(vip), ft.key_bytes()
        )
        assert result.dip == expected
