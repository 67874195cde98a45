"""Equivalence tests: the P4 SilkRoad pipeline vs the object model."""

from __future__ import annotations

import pytest

from repro.core import Phase, SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    Connection,
    DirectIP,
    TupleFactory,
    UpdateEvent,
    UpdateKind,
    make_cluster,
)
from repro.p4 import SilkRoadP4, UPDATE_STEP2, build_packet

#: Switch configs the mirror must track: a small table, the default
#: 1 M-entry table (buckets past 16 bits), and digests narrower and wider
#: than the default 16 bits.
MIRRORED_CONFIGS = {
    "cap5000": SilkRoadConfig(conn_table_capacity=5000),
    "default": SilkRoadConfig(),
    "digest8": SilkRoadConfig(conn_table_capacity=200_000, digest_bits=8),
    "digest24": SilkRoadConfig(conn_table_capacity=200_000, digest_bits=24),
}


@pytest.fixture(params=list(MIRRORED_CONFIGS.values()), ids=list(MIRRORED_CONFIGS))
def switch_and_conns(request):
    cluster = make_cluster(num_vips=3, dips_per_vip=6)
    switch = SilkRoadSwitch(request.param)
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    factory = TupleFactory()
    conns = []
    for i in range(60):
        vip = cluster.vips[i % 3]
        conn = Connection(
            conn_id=i,
            key=factory.next_for(vip).key_bytes(),
            vip=vip,
            start=switch.queue.now,
            duration=3600.0,
        )
        switch.on_connection_arrival(conn)
        conns.append(conn)
    switch.queue.run_until(switch.queue.now + 1.0)  # CPU installs entries
    return cluster, switch, conns, factory


class TestMirroredEquivalence:
    def test_resident_connections_forward_identically(self, switch_and_conns):
        _cluster, switch, conns, _factory = switch_and_conns
        p4 = SilkRoadP4.mirror(switch)
        for conn in conns:
            result = p4.process(build_packet(conn.five_tuple))
            assert result.forwarded
            assert result.conn_table_hit
            assert result.dip == conn.decisions[-1][1]

    def test_new_connection_uses_current_pool(self, switch_and_conns):
        cluster, switch, _conns, factory = switch_and_conns
        p4 = SilkRoadP4.mirror(switch)
        vip = cluster.vips[1]
        ft = factory.next_for(vip)
        result = p4.process(build_packet(ft, syn=True))
        expected = switch.dip_pools.select(
            vip, switch.dip_pools.current_version(vip), ft.key_bytes()
        )
        assert result.dip == expected
        assert result.learned and not result.conn_table_hit

    def test_equivalence_across_an_update(self, switch_and_conns):
        cluster, switch, conns, factory = switch_and_conns
        vip = cluster.vips[0]
        victim = cluster.services[0].dips[0]
        switch.apply_update(
            UpdateEvent(switch.queue.now, vip, UpdateKind.REMOVE, victim)
        )
        switch.queue.run_until(switch.queue.now + 1.0)
        p4 = SilkRoadP4.mirror(switch)
        # Old connections still go where the object model pinned them.
        for conn in conns:
            result = p4.process(build_packet(conn.five_tuple))
            assert result.forwarded
            assert result.dip == conn.decisions[-1][1]
        # New connections avoid the removed DIP.
        for _ in range(20):
            ft = factory.next_for(vip)
            result = p4.process(build_packet(ft, syn=True))
            assert result.dip != victim

    def test_unknown_vip_dropped(self, switch_and_conns):
        _cluster, switch, _conns, _factory = switch_and_conns
        from repro.netsim.packet import FiveTuple

        p4 = SilkRoadP4.mirror(switch)
        stray = FiveTuple(src_ip=1, src_port=2, dst_ip=0x7F000001, dst_port=99)
        result = p4.process(build_packet(stray))
        assert result.dropped and not result.forwarded


class TestMirrorMidUpdate:
    """A slow switch CPU holds installed and still-pending connections
    while a 3-step update is in flight; the twin mirrored mid-step-1 and
    mid-step-2 forwards every live connection where the switch does."""

    def test_twin_tracks_an_update_with_an_install_backlog(self):
        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        vip = cluster.vips[0]
        config = SilkRoadConfig(conn_table_capacity=5000, insertion_rate_per_s=50.0)
        switch = SilkRoadSwitch(config)
        for service in cluster.services:
            switch.announce_vip(service.vip, service.dips)
        factory = TupleFactory()
        conns = []

        def arrive(count, spacing_s=2e-3):
            batch = []
            for _ in range(count):
                switch.queue.run_until(switch.queue.now + spacing_s)
                target = cluster.vips[len(conns) % 2]
                conn = Connection(
                    conn_id=len(conns), key=factory.next_for(target).key_bytes(),
                    vip=target, start=switch.queue.now, duration=3600.0,
                )
                switch.on_connection_arrival(conn)
                conns.append(conn)
                batch.append(conn)
            return batch

        def installed(conn):
            return conn.five_tuple.key_bytes() in switch.conn_table

        def forward_all(p4, syn_for=()):
            results = {}
            for conn in conns:
                syn = conn in syn_for
                result = p4.process(build_packet(conn.five_tuple, syn=syn))
                assert result.forwarded
                assert result.dip == conn.current_dip, conn.conn_id
                results[conn.conn_id] = result
            return results

        arrive(10)
        switch.queue.run_until(switch.queue.now + 1.0)  # installed
        arrive(10)  # pending when the update is requested
        old_version = switch.dip_pools.current_version(vip)
        switch.apply_update(
            UpdateEvent(
                switch.queue.now, vip, UpdateKind.ADD, DirectIP.parse("10.9.9.9:8080")
            )
        )
        marked = [c for c in arrive(10) if c.vip == vip]

        # Mid-step-1: old connections installed, the rest pending.
        assert switch.coordinator.phase(vip) is Phase.STEP1
        assert any(installed(c) for c in conns)
        assert not all(installed(c) for c in conns)
        forward_all(SilkRoadP4.mirror(switch))

        # Mid-step-2: the pre-request backlog drained, marked ones pending.
        while switch.coordinator.phase(vip) is Phase.STEP1:
            switch.queue.run_until(switch.queue.now + 1e-3)
        assert switch.coordinator.phase(vip) is Phase.STEP2
        arrive(6)  # step-2 arrivals consult the filter
        pending = [c for c in marked if not installed(c)]
        assert pending
        results = forward_all(SilkRoadP4.mirror(switch), syn_for=pending)
        for conn in pending:
            result = results[conn.conn_id]
            assert result.transit_hit and not result.conn_table_hit
            assert result.version == old_version
            assert result.redirected_to_cpu


class TestStep2Behaviour:
    def test_transit_hit_selects_old_version(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        vip = cluster.vips[0]
        factory = TupleFactory()
        pending = factory.next_for(vip)

        p4 = SilkRoadP4()
        p4.program_vip(vip, version=1, old_version=0, update_state=UPDATE_STEP2)
        dips = cluster.services[0].dips
        p4.program_pool(vip, 0, dips)
        p4.program_pool(vip, 1, dips[1:])
        p4.transit_mark(pending.key_bytes())

        result = p4.process(build_packet(pending, syn=False))
        assert result.transit_hit
        assert result.version == 0  # the old version protects it

        fresh = factory.next_for(vip)
        result = p4.process(build_packet(fresh, syn=False))
        assert not result.transit_hit
        assert result.version == 1

    def test_syn_on_transit_hit_redirected(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        vip = cluster.vips[0]
        factory = TupleFactory()
        pending = factory.next_for(vip)
        p4 = SilkRoadP4()
        p4.program_vip(vip, version=1, old_version=0, update_state=UPDATE_STEP2)
        p4.program_pool(vip, 0, cluster.services[0].dips)
        p4.program_pool(vip, 1, cluster.services[0].dips)
        p4.transit_mark(pending.key_bytes())
        result = p4.process(build_packet(pending, syn=True))
        assert result.redirected_to_cpu  # §4.3's false-positive mitigation


class TestMirroredTransitTable:
    @pytest.mark.parametrize("size_bytes", [8, 256])
    def test_twin_answers_every_probe_like_the_switch(self, size_bytes):
        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        vip = cluster.vips[0]
        config = SilkRoadConfig(conn_table_capacity=5000, transit_table_bytes=size_bytes)
        switch = SilkRoadSwitch(config)
        switch.announce_vip(vip, cluster.services[0].dips)
        factory = TupleFactory()

        def arrive(conn_id):
            conn = Connection(
                conn_id=conn_id, key=factory.next_for(vip).key_bytes(), vip=vip,
                start=0.0, duration=100.0,
            )
            switch.on_connection_arrival(conn)
            return conn.five_tuple.key_bytes()

        arrive(0)  # still pending: the update waits in step 1
        switch.apply_update(
            UpdateEvent(0.0, vip, UpdateKind.REMOVE, cluster.services[0].dips[0])
        )
        marked = [arrive(i) for i in range(1, 61)]
        assert switch.transit.population == 60

        p4 = SilkRoadP4.mirror(switch)
        assert p4.transit_register.size == size_bytes * 8
        outsiders = [factory.next_for(vip).key_bytes() for _ in range(500)]
        for key in marked + outsiders:
            assert p4._transit_check(key) == switch.transit.check(key).positive
        if size_bytes == 8:  # saturated: most outsiders hit falsely
            assert switch.transit.false_positives > 250


class TestLearning:
    def test_miss_triggers_learn_digest(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=2)
        vip = cluster.vips[0]
        p4 = SilkRoadP4()
        p4.program_vip(vip, version=0)
        p4.program_pool(vip, 0, cluster.services[0].dips)
        ft = TupleFactory().next_for(vip)
        p4.process(build_packet(ft, syn=True))
        assert len(p4.learned_digests) == 1
        _stage, _bucket, _digest, key = p4.learned_digests[0]
        assert key == ft.key_bytes()

    def test_install_then_hit(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=2)
        vip = cluster.vips[0]
        p4 = SilkRoadP4()
        p4.program_vip(vip, version=0)
        p4.program_pool(vip, 0, cluster.services[0].dips)
        ft = TupleFactory().next_for(vip)
        p4.install_connection(ft.key_bytes(), stage=0, version=0)
        result = p4.process(build_packet(ft))
        assert result.conn_table_hit
