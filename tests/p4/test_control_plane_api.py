"""Tests for the P4 program's control-plane API details."""

from __future__ import annotations

import pytest

from repro.netsim import DirectIP, TupleFactory, VirtualIP
from repro.p4 import SilkRoadP4, UPDATE_NONE, UPDATE_STEP1, build_packet

VIP = VirtualIP.parse("20.0.0.1:80")


def dips(n, base=1):
    return [DirectIP.parse(f"10.0.0.{base + i}:8080") for i in range(n)]


class TestVipProgramming:
    def test_vip_index_stable(self):
        p4 = SilkRoadP4()
        first = p4.vip_index(VIP)
        assert p4.vip_index(VIP) == first

    def test_reprogram_replaces_entry(self):
        p4 = SilkRoadP4()
        p4.program_vip(VIP, version=0)
        p4.program_vip(VIP, version=3)  # same VIP, new version
        p4.program_pool(VIP, 3, dips(2))
        ft = TupleFactory().next_for(VIP)
        result = p4.process(build_packet(ft))
        assert result.version == 3
        assert len(p4.vip_table_v4) == 1  # replaced, not duplicated

    def test_v6_vips_go_to_v6_table(self):
        p4 = SilkRoadP4()
        vip6 = VirtualIP.parse("[2001:db8::1]:80")
        p4.program_vip(vip6, version=0)
        assert len(p4.vip_table_v6) == 1
        assert len(p4.vip_table_v4) == 0


class TestPoolProgramming:
    def test_reprogram_pool_releases_members(self):
        p4 = SilkRoadP4()
        p4.program_vip(VIP, version=0)
        p4.program_pool(VIP, 0, dips(4))
        members_before = len(p4.dip_member_table)
        p4.program_pool(VIP, 0, dips(2))  # shrink the same version
        assert len(p4.dip_member_table) == members_before - 2

    def test_missing_pool_drops_packet(self):
        p4 = SilkRoadP4()
        p4.program_vip(VIP, version=5)  # no pool programmed for v5
        ft = TupleFactory().next_for(VIP)
        result = p4.process(build_packet(ft))
        assert result.dropped


class TestTransitRegister:
    def test_step1_marks_new_connections(self):
        p4 = SilkRoadP4()
        p4.program_vip(VIP, version=0, old_version=0, update_state=UPDATE_STEP1)
        p4.program_pool(VIP, 0, dips(4))
        ft = TupleFactory().next_for(VIP)
        assert not p4._transit_check(ft.key_bytes())
        p4.process(build_packet(ft, syn=True))
        assert p4._transit_check(ft.key_bytes())

    def test_no_marking_outside_updates(self):
        p4 = SilkRoadP4()
        p4.program_vip(VIP, version=0, update_state=UPDATE_NONE)
        p4.program_pool(VIP, 0, dips(4))
        ft = TupleFactory().next_for(VIP)
        p4.process(build_packet(ft, syn=True))
        assert not p4._transit_check(ft.key_bytes())

    def test_clear(self):
        p4 = SilkRoadP4()
        p4.transit_mark(b"conn")
        p4.transit_register.clear()
        assert not p4._transit_check(b"conn")


class TestNonIpTraffic:
    def test_arp_dropped(self):
        p4 = SilkRoadP4()
        frame = b"\x02" * 12 + (0x0806).to_bytes(2, "big") + b"\x00" * 28
        result = p4.process(frame)
        assert result.dropped and not result.forwarded
