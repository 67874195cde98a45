"""Tests for the software-load-balancer baseline and its cost model."""

from __future__ import annotations

import pytest

from repro.baselines.slb import (
    SoftwareLoadBalancer,
    cost_of_equal_throughput,
    silkroads_required,
    slbs_required,
)
from repro.netsim import FlowSimulator, UpdateEvent, UpdateKind
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for

VIP = VirtualIP.parse("20.0.0.1:80")


def dips(n):
    return [DirectIP.parse(f"10.0.0.{i}:80") for i in range(1, n + 1)]


def conns(n, duration=100.0):
    return [
        Connection(
            conn_id=i,
            key=five_tuple_for(VIP, src_ip=i, src_port=1024).key_bytes(),
            vip=VIP,
            start=float(i % 10),
            duration=duration,
        )
        for i in range(n)
    ]


class TestSizingRules:
    def test_paper_datacenter_example(self):
        # §2.2: 15 Tbps needs 1500 SLBs at NIC line rate.
        assert slbs_required(peak_pps=0.0, peak_gbps=15_000.0) == 1500

    def test_pps_bound(self):
        # 120 Mpps needs 10 machines at 12 Mpps each.
        assert slbs_required(peak_pps=120e6, peak_gbps=1.0) == 10

    def test_minimum_one(self):
        assert slbs_required(0.0, 0.0) == 1
        assert silkroads_required(0.0) == 1

    def test_silkroads_by_connections(self):
        assert silkroads_required(10e6) == 1
        assert silkroads_required(10e6 + 1) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            slbs_required(-1.0, 0.0)
        with pytest.raises(ValueError):
            silkroads_required(-1.0)


class TestEconomics:
    def test_paper_ratios(self):
        comparison = cost_of_equal_throughput()
        # §6.1: ~1/500 power, ~1/250 capital cost.
        assert comparison.power_ratio == pytest.approx(500, rel=0.2)
        assert comparison.cost_ratio == pytest.approx(250, rel=0.1)
        assert comparison.slb_count == pytest.approx(833, rel=0.01)


class TestSoftwareLoadBalancer:
    def test_pcc_by_construction(self):
        lb = SoftwareLoadBalancer()
        lb.announce_vip(VIP, dips(8))
        cs = conns(300)
        updates = [
            UpdateEvent(20.0, VIP, UpdateKind.REMOVE, dips(8)[0]),
            UpdateEvent(40.0, VIP, UpdateKind.ADD, DirectIP.parse("10.9.9.9:80")),
        ]
        report = FlowSimulator(lb).run(cs, updates, horizon_s=100.0)
        assert report.pcc_violations == 0

    def test_removed_dip_breaks_its_connections(self):
        lb = SoftwareLoadBalancer()
        lb.announce_vip(VIP, dips(4))
        cs = conns(200)
        update = UpdateEvent(20.0, VIP, UpdateKind.REMOVE, dips(4)[0])
        FlowSimulator(lb).run(cs, [update], horizon_s=100.0)
        assert any(c.broken_by_removal for c in cs)

    def test_new_connections_avoid_removed_dip(self):
        lb = SoftwareLoadBalancer()
        lb.announce_vip(VIP, dips(4))
        victim = dips(4)[0]
        early = conns(100)
        late = [
            Connection(
                conn_id=1000 + i,
                key=five_tuple_for(VIP, src_ip=10_000 + i, src_port=1024).key_bytes(),
                vip=VIP,
                start=60.0,
                duration=10.0,
            )
            for i in range(100)
        ]
        update = UpdateEvent(30.0, VIP, UpdateKind.REMOVE, victim)
        FlowSimulator(lb).run(early + late, [update], horizon_s=100.0)
        for c in late:
            assert all(dip != victim for _t, dip in c.decisions)

    def test_conn_table_evicts_on_end(self):
        lb = SoftwareLoadBalancer()
        lb.announce_vip(VIP, dips(2))
        cs = conns(50, duration=5.0)
        FlowSimulator(lb).run(cs, horizon_s=100.0)
        assert not lb._conn_table
        assert lb.peak_connections > 0

    def test_modulo_mode(self):
        lb = SoftwareLoadBalancer(use_maglev=False)
        lb.announce_vip(VIP, dips(4))
        report = FlowSimulator(lb).run(conns(100), horizon_s=100.0)
        assert report.pcc_violations == 0

    def test_duplicate_vip_rejected(self):
        lb = SoftwareLoadBalancer()
        lb.announce_vip(VIP, dips(2))
        with pytest.raises(ValueError):
            lb.announce_vip(VIP, dips(2))
