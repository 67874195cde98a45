"""Tests for addresses, 5-tuples, and tuple generation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.packet import (
    DirectIP,
    FiveTuple,
    IPV4_KEY_BYTES,
    IPV6_KEY_BYTES,
    TCP,
    TupleFactory,
    UDP,
    VirtualIP,
    five_tuple_for,
    parse_ip,
)


class TestParsing:
    def test_parse_ipv4(self):
        ip, v6 = parse_ip("10.0.0.1")
        assert ip == 0x0A000001
        assert not v6

    def test_parse_ipv6(self):
        ip, v6 = parse_ip("2001:db8::1")
        assert v6
        assert ip == (0x20010DB8 << 96) | 1

    def test_vip_parse_roundtrip(self):
        vip = VirtualIP.parse("20.0.0.1:80")
        assert str(vip) == "20.0.0.1:80"
        assert vip.port == 80
        assert vip.proto == TCP

    def test_vip_parse_v6(self):
        vip = VirtualIP.parse("[2001:db8::1]:443")
        assert vip.v6
        assert vip.port == 443
        assert str(vip) == "[2001:db8::1]:443"

    def test_dip_parse_roundtrip(self):
        dip = DirectIP.parse("10.0.0.2:8080")
        assert str(dip) == "10.0.0.2:8080"

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            VirtualIP(ip=1, port=70000)
        with pytest.raises(ValueError):
            DirectIP(ip=1, port=-1)

    @pytest.mark.parametrize("ip", [2**33, 2**32, -1])
    def test_ip_range_validated(self, ip):
        # Used to construct fine and fail as struct.error inside
        # FiveTuple.key_bytes() at the first arrival that used it.
        with pytest.raises(ValueError, match="ip out of range"):
            VirtualIP(ip=ip, port=80)
        with pytest.raises(ValueError, match="ip out of range"):
            DirectIP(ip=ip, port=80)

    def test_ip_range_follows_the_address_family(self):
        assert VirtualIP(ip=2**32 - 1, port=80).ip == 2**32 - 1
        assert DirectIP(ip=2**33, port=80, v6=True).v6
        assert VirtualIP(ip=2**128 - 1, port=80, v6=True).v6
        with pytest.raises(ValueError, match="ip out of range"):
            VirtualIP(ip=2**128, port=80, v6=True)
        with pytest.raises(ValueError, match="ip out of range"):
            DirectIP(ip=-1, port=80, v6=True)

    @pytest.mark.parametrize("proto", [300, 256, -1])
    def test_proto_range_validated(self, proto):
        with pytest.raises(ValueError, match="proto out of range"):
            VirtualIP(ip=1, port=80, proto=proto)
        assert VirtualIP(ip=1, port=80, proto=255).proto == 255

    def test_validated_address_always_packs(self):
        vip = VirtualIP(ip=2**32 - 1, port=0xFFFF, proto=255)
        assert len(five_tuple_for(vip, 2**32 - 1, 0xFFFF).key_bytes()) == IPV4_KEY_BYTES


class TestFiveTuple:
    def test_key_bytes_ipv4_width(self):
        ft = FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=4)
        assert len(ft.key_bytes()) == IPV4_KEY_BYTES  # 13 bytes (§4.2)

    def test_key_bytes_ipv6_width(self):
        ft = FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=4, v6=True)
        assert len(ft.key_bytes()) == IPV6_KEY_BYTES  # 37 bytes (§4.2)

    def test_key_bytes_unique_per_field(self):
        base = FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=4, proto=TCP)
        variants = [
            FiveTuple(src_ip=9, src_port=2, dst_ip=3, dst_port=4, proto=TCP),
            FiveTuple(src_ip=1, src_port=9, dst_ip=3, dst_port=4, proto=TCP),
            FiveTuple(src_ip=1, src_port=2, dst_ip=9, dst_port=4, proto=TCP),
            FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=9, proto=TCP),
            FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=4, proto=UDP),
        ]
        keys = {v.key_bytes() for v in variants}
        assert base.key_bytes() not in keys
        assert len(keys) == 5

    def test_vip_extraction(self):
        vip = VirtualIP.parse("20.0.0.1:80")
        ft = five_tuple_for(vip, src_ip=0x0A800001, src_port=4000)
        assert ft.vip() == vip

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
    )
    def test_key_bytes_deterministic(self, ip, port):
        a = FiveTuple(src_ip=ip, src_port=port, dst_ip=1, dst_port=80)
        b = FiveTuple(src_ip=ip, src_port=port, dst_ip=1, dst_port=80)
        assert a.key_bytes() == b.key_bytes()

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=255),
    )
    def test_from_key_bytes_inverts_key_bytes(self, v6, src, dst, sport, dport, proto):
        if not v6:
            src, dst = src >> 96, dst >> 96
        ft = FiveTuple(src, sport, dst, dport, proto, v6)
        assert FiveTuple.from_key_bytes(ft.key_bytes()) == ft


class TestTupleFactory:
    def test_uniqueness(self, vip):
        factory = TupleFactory()
        seen = {factory.next_for(vip).key_bytes() for _ in range(70_000)}
        assert len(seen) == 70_000  # rolls over the port space into new IPs

    def test_all_target_the_vip(self, vip):
        factory = TupleFactory()
        for _ in range(100):
            assert factory.next_for(vip).vip() == vip
