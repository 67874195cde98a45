"""Tests for network-wide VIP-to-layer bin packing (§5.3)."""

from __future__ import annotations

import pytest

from repro.deploy import assignment
from repro.deploy.assignment import VipDemand, assign_vips
from repro.netsim.packet import VirtualIP
from repro.netsim.topology import Fabric, Layer


def vip(i: int) -> VirtualIP:
    return VirtualIP.parse(f"20.0.{i // 256}.{i % 256}:80")


def demands(n: int, conns: float = 1e6, gbps: float = 10.0):
    return [VipDemand(vip=vip(i), connections=conns, traffic_gbps=gbps) for i in range(n)]


class TestVipDemand:
    def test_sram_packed_arithmetic(self):
        d = VipDemand(vip=vip(0), connections=1e6, traffic_gbps=1.0)
        # 1M 28-bit entries, 4 per 112-bit word -> 3.5 MB.
        assert d.sram_bytes() == pytest.approx(3.5e6, rel=0.01)


class TestAssignment:
    def test_all_placed_when_plenty_of_room(self):
        fabric = Fabric.build(num_tors=8, num_aggs=4, num_cores=2)
        result = assign_vips(fabric, demands(10))
        assert result.feasible
        assert len(result.placement.assignment) == 10

    def test_minimizes_max_utilization(self):
        fabric = Fabric.build(num_tors=8, num_aggs=4, num_cores=2)
        result = assign_vips(fabric, demands(40, conns=2e6))
        # 40 x 7 MB = 280 MB over 800 MB of fleet SRAM: a balanced greedy
        # placement keeps the hottest switch well below naive stacking.
        assert result.feasible
        assert result.max_sram_utilization(fabric) < 0.6

    def test_big_vip_lands_on_wide_layer(self):
        # A VIP whose state exceeds one switch's budget must go to a layer
        # wide enough to split it below budget.
        fabric = Fabric.build(
            num_tors=16, num_aggs=2, num_cores=1,
            tor_sram_bytes=10_000_000, agg_sram_bytes=10_000_000,
            core_sram_bytes=10_000_000,
        )
        monster = VipDemand(vip=vip(0), connections=30e6, traffic_gbps=100.0)
        result = assign_vips(fabric, [monster])
        assert result.feasible
        layer = result.placement.assignment[monster.vip]
        assert layer is Layer.TOR  # only 16-wide ToR layer fits 105 MB split

    def test_infeasible_reported_not_crashed(self):
        fabric = Fabric.build(
            num_tors=2, num_aggs=2, num_cores=2,
            tor_sram_bytes=1_000_000, agg_sram_bytes=1_000_000,
            core_sram_bytes=1_000_000,
        )
        monster = VipDemand(vip=vip(0), connections=50e6, traffic_gbps=1.0)
        result = assign_vips(fabric, [monster])
        assert not result.feasible
        assert result.unplaced == [monster]

    def test_capacity_constraint_respected(self):
        fabric = Fabric.build(num_tors=2, num_aggs=2, num_cores=2)
        # Traffic beyond every layer's aggregate capacity.
        hot = VipDemand(vip=vip(0), connections=1e3, traffic_gbps=100_000.0)
        result = assign_vips(fabric, [hot])
        assert not result.feasible

    def test_incremental_deployment_subset(self):
        fabric = Fabric.build(num_tors=8, num_aggs=4, num_cores=2)
        enabled = {Layer.TOR: fabric.tors[:2], Layer.AGG: [], Layer.CORE: []}
        result = assign_vips(fabric, demands(4), enabled=enabled)
        assert result.feasible
        # Only the two enabled ToRs carry load.
        loaded = {n for n, used in result.sram_used.items() if used > 0}
        assert loaded == {"tor-0", "tor-1"}

    def test_headroom_tightens_budget(self, monkeypatch):
        fabric = Fabric.build(
            num_tors=1, num_aggs=1, num_cores=1,
            tor_sram_bytes=4_000_000, agg_sram_bytes=4_000_000,
            core_sram_bytes=4_000_000,
        )
        d = demands(1, conns=1e6)  # 3.5 MB on one switch
        assert assign_vips(fabric, d).feasible
        monkeypatch.setattr(assignment, "SRAM_HEADROOM", 0.5)
        assert not assign_vips(fabric, d).feasible
