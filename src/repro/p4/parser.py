"""Byte-level packet parser and deparser (P4 ``parser`` equivalent).

Parses Ethernet / IPv4 / IPv6 / TCP / UDP from raw bytes into header
instances, and serializes them back.  Also provides builders that turn the
simulator's :class:`~repro.netsim.packet.FiveTuple` into real packets, so
the P4 pipeline is exercised on actual wire formats.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..netsim.packet import FiveTuple
from .context import PacketContext
from .types import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
)


class ParseError(ValueError):
    """Raised on truncated or unsupported packets."""


def parse_packet(data: bytes, ctx: Optional[PacketContext] = None) -> PacketContext:
    """Parse a raw frame into a packet context (Ethernet -> IP -> L4)."""
    if ctx is None:
        ctx = PacketContext()
    if len(data) < 14:
        raise ParseError("frame shorter than an Ethernet header")
    eth = ctx.header("ethernet")
    eth.set_valid()
    eth["dst_addr"] = int.from_bytes(data[0:6], "big")
    eth["src_addr"] = int.from_bytes(data[6:12], "big")
    eth["ether_type"] = int.from_bytes(data[12:14], "big")
    ctx.standard["packet_length"] = min(len(data), 0xFFFF)
    payload = data[14:]
    if eth["ether_type"] == ETHERTYPE_IPV4:
        payload = _parse_ipv4(ctx, payload)
    elif eth["ether_type"] == ETHERTYPE_IPV6:
        payload = _parse_ipv6(ctx, payload)
    else:
        return ctx  # non-IP: nothing more to parse
    ip = ctx.ip_header
    proto = ip["protocol"] if ctx.is_valid("ipv4") else ip["next_hdr"]
    ctx.l4_proto = proto
    if proto == IP_PROTO_TCP:
        _parse_tcp(ctx, payload)
    elif proto == IP_PROTO_UDP:
        _parse_udp(ctx, payload)
    return ctx


def _parse_ipv4(ctx: PacketContext, data: bytes) -> bytes:
    if len(data) < 20:
        raise ParseError("truncated IPv4 header")
    ipv4 = ctx.header("ipv4")
    ipv4.set_valid()
    ipv4["version"] = data[0] >> 4
    ipv4["ihl"] = data[0] & 0xF
    if ipv4["version"] != 4:
        raise ParseError("bad IPv4 version")
    ipv4["diffserv"] = data[1]
    ipv4["total_len"] = int.from_bytes(data[2:4], "big")
    ipv4["identification"] = int.from_bytes(data[4:6], "big")
    frag = int.from_bytes(data[6:8], "big")
    ipv4["flags"] = frag >> 13
    ipv4["frag_offset"] = frag & 0x1FFF
    ipv4["ttl"] = data[8]
    ipv4["protocol"] = data[9]
    ipv4["hdr_checksum"] = int.from_bytes(data[10:12], "big")
    ipv4["src_addr"] = int.from_bytes(data[12:16], "big")
    ipv4["dst_addr"] = int.from_bytes(data[16:20], "big")
    return data[ipv4["ihl"] * 4 :]


def _parse_ipv6(ctx: PacketContext, data: bytes) -> bytes:
    if len(data) < 40:
        raise ParseError("truncated IPv6 header")
    ipv6 = ctx.header("ipv6")
    ipv6.set_valid()
    first = int.from_bytes(data[0:4], "big")
    ipv6["version"] = first >> 28
    if ipv6["version"] != 6:
        raise ParseError("bad IPv6 version")
    ipv6["traffic_class"] = (first >> 20) & 0xFF
    ipv6["flow_label"] = first & 0xFFFFF
    ipv6["payload_len"] = int.from_bytes(data[4:6], "big")
    ipv6["next_hdr"] = data[6]
    ipv6["hop_limit"] = data[7]
    ipv6["src_addr"] = int.from_bytes(data[8:24], "big")
    ipv6["dst_addr"] = int.from_bytes(data[24:40], "big")
    return data[40:]


def _parse_tcp(ctx: PacketContext, data: bytes) -> None:
    if len(data) < 20:
        raise ParseError("truncated TCP header")
    tcp = ctx.header("tcp")
    tcp.set_valid()
    tcp["src_port"] = int.from_bytes(data[0:2], "big")
    tcp["dst_port"] = int.from_bytes(data[2:4], "big")
    tcp["seq_no"] = int.from_bytes(data[4:8], "big")
    tcp["ack_no"] = int.from_bytes(data[8:12], "big")
    tcp["data_offset"] = data[12] >> 4
    tcp["reserved"] = data[12] & 0xF
    tcp["flags"] = data[13]
    tcp["window"] = int.from_bytes(data[14:16], "big")
    tcp["checksum"] = int.from_bytes(data[16:18], "big")
    tcp["urgent_ptr"] = int.from_bytes(data[18:20], "big")


def _parse_udp(ctx: PacketContext, data: bytes) -> None:
    if len(data) < 8:
        raise ParseError("truncated UDP header")
    udp = ctx.header("udp")
    udp.set_valid()
    udp["src_port"] = int.from_bytes(data[0:2], "big")
    udp["dst_port"] = int.from_bytes(data[2:4], "big")
    udp["length"] = int.from_bytes(data[4:6], "big")
    udp["checksum"] = int.from_bytes(data[6:8], "big")


# ----------------------------------------------------------------------
# Builders / deparser
# ----------------------------------------------------------------------


#: Locally administered MACs of the frames :func:`build_packet` writes.
SRC_MAC = 0x02_00_00_00_00_01
DST_MAC = 0x02_00_00_00_00_02


def build_packet(five_tuple: FiveTuple, syn: bool = False) -> bytes:
    """Serialize a connection's packet, with no payload, to wire bytes
    (TCP or UDP)."""
    if five_tuple.proto == IP_PROTO_TCP:
        flags = TCP_SYN if syn else TCP_ACK
        l4 = struct.pack(
            ">HHIIBBHHH",
            five_tuple.src_port,
            five_tuple.dst_port,
            0,
            0,
            5 << 4,
            flags,
            0xFFFF,
            0,
            0,
        )
    elif five_tuple.proto == IP_PROTO_UDP:
        l4 = struct.pack(">HHHH", five_tuple.src_port, five_tuple.dst_port, 8, 0)
    else:
        raise ParseError(f"unsupported protocol {five_tuple.proto}")

    if five_tuple.v6:
        ip = struct.pack(
            ">IHBB16s16s",
            6 << 28,
            len(l4),
            five_tuple.proto,
            64,
            five_tuple.src_ip.to_bytes(16, "big"),
            five_tuple.dst_ip.to_bytes(16, "big"),
        )
        ether_type = ETHERTYPE_IPV6
    else:
        total_len = 20 + len(l4)
        ip = struct.pack(
            ">BBHHHBBHII",
            (4 << 4) | 5,
            0,
            total_len,
            0,
            0,
            64,
            five_tuple.proto,
            0,
            five_tuple.src_ip,
            five_tuple.dst_ip,
        )
        ether_type = ETHERTYPE_IPV4
    eth = (
        DST_MAC.to_bytes(6, "big")
        + SRC_MAC.to_bytes(6, "big")
        + ether_type.to_bytes(2, "big")
    )
    return eth + ip + l4


def is_tcp_syn(ctx: PacketContext) -> bool:
    """True for a SYN without ACK (a connection's first packet)."""
    if not ctx.is_valid("tcp"):
        return False
    flags = ctx.header("tcp")["flags"]
    return bool(flags & TCP_SYN) and not flags & TCP_ACK
