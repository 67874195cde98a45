"""Tests for the per-packet execution context."""

from __future__ import annotations

import pytest

from repro.p4.context import InvalidHeaderAccess, PacketContext


class TestFieldPaths:
    def test_meta_paths(self):
        ctx = PacketContext()
        ctx.set("meta.pool_version", 5)
        assert ctx.get("meta.pool_version") == 5

    def test_standard_paths(self):
        ctx = PacketContext()
        ctx.set("standard.ingress_port", 3)
        assert ctx.get("standard.ingress_port") == 3

    def test_header_paths_require_validity(self):
        ctx = PacketContext()
        with pytest.raises(InvalidHeaderAccess):
            ctx.get("ipv4.dst_addr")
        with pytest.raises(InvalidHeaderAccess):
            ctx.set("ipv4.dst_addr", 1)
        ctx.header("ipv4").set_valid()
        ctx.set("ipv4.dst_addr", 42)
        assert ctx.get("ipv4.dst_addr") == 42


class TestL3L4Views:
    def test_no_ip_raises(self):
        ctx = PacketContext()
        with pytest.raises(InvalidHeaderAccess):
            _ = ctx.ip_header
        with pytest.raises(InvalidHeaderAccess):
            _ = ctx.l4_header

    def test_ipv4_preferred_when_valid(self):
        ctx = PacketContext()
        ctx.header("ipv4").set_valid()
        assert ctx.ip_header.spec.name == "ipv4"

    def test_five_tuple_bytes_matches_model(self):
        from repro.netsim.packet import FiveTuple

        ft = FiveTuple(src_ip=7, src_port=8, dst_ip=9, dst_port=10)
        ctx = PacketContext()
        ctx.header("ipv4").set_valid()
        ctx.header("tcp").set_valid()
        ctx.set("ipv4.src_addr", 7)
        ctx.set("ipv4.dst_addr", 9)
        ctx.set("tcp.src_port", 8)
        ctx.set("tcp.dst_port", 10)
        ctx.l4_proto = 6
        assert ctx.five_tuple_bytes() == ft.key_bytes()
