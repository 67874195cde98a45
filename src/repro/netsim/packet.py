"""Addresses, 5-tuples, VIPs, and DIPs.

The vocabulary of L4 load balancing (§2.1 of the paper):

* A **VIP** (virtual IP) is the service address clients connect to —
  an ``ip:port`` pair plus protocol, e.g. ``20.0.0.1:80/tcp``.
* A **DIP** (direct IP) is one backend server's address, e.g.
  ``10.0.0.2:20``.  A VIP maps to a *DIP pool*.
* A connection is identified by its **5-tuple**
  ``(src ip, src port, dst ip, dst port, protocol)``.

Addresses are stored as integers with an IPv6 flag; ``key_bytes`` produces
the canonical byte string the ASIC's hash units consume (13 bytes for IPv4,
37 bytes for IPv6 — the widths the paper's memory arithmetic uses).
"""

from __future__ import annotations

import ipaddress
import struct
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

TCP = 6
UDP = 17

#: Match key sizes the paper quotes (bytes).
IPV4_KEY_BYTES = 13
IPV6_KEY_BYTES = 37


def _format_ip(ip: int, v6: bool) -> str:
    if v6:
        return str(ipaddress.IPv6Address(ip))
    return str(ipaddress.IPv4Address(ip))


def parse_ip(text: str) -> Tuple[int, bool]:
    """Parse a dotted/colon address into ``(int, is_v6)``."""
    addr = ipaddress.ip_address(text)
    return int(addr), addr.version == 6


def _check_endpoint(ip: int, port: int, v6: bool) -> None:
    """Reject an address ``struct.pack`` would choke on mid-replay."""
    if not 0 <= port <= 0xFFFF:
        raise ValueError("port out of range")
    if not 0 <= ip < 1 << (128 if v6 else 32):
        raise ValueError("ip out of range")


@lru_cache(maxsize=1 << 14)
def _endpoint_text(address) -> str:
    """``str()`` of a VIP or DIP.  Rendered per flight-recorder event;
    building an ipaddress object each time would dominate the record
    path, so it is cached (by value: the records hash as their fields)."""
    host = _format_ip(address.ip, address.v6)
    if address.v6:
        return f"[{host}]:{address.port}"
    return f"{host}:{address.port}"


# VIPs, DIPs and 5-tuples are tuple records: they are hashed and compared
# millions of times as dict/set keys during a simulation, and a tuple does
# both in C.  ``hash(record) == hash(tuple(record))`` depends on field
# values only, so set/dict iteration order is the same in every process.


class VirtualIP(
    NamedTuple("VirtualIP", [("ip", int), ("port", int), ("proto", int), ("v6", bool)])
):
    """A load-balanced service address (VIP)."""

    __slots__ = ()

    def __new__(
        cls, ip: int, port: int, proto: int = TCP, v6: bool = False
    ) -> "VirtualIP":
        _check_endpoint(ip, port, v6)
        if not 0 <= proto <= 0xFF:
            raise ValueError("proto out of range")
        return tuple.__new__(cls, (ip, port, proto, v6))

    @classmethod
    def parse(cls, text: str, proto: int = TCP) -> "VirtualIP":
        """Parse ``"20.0.0.1:80"`` or ``"[2001:db8::1]:80"``."""
        host, _, port = text.rpartition(":")
        host = host.strip("[]")
        ip, v6 = parse_ip(host)
        return cls(ip=ip, port=int(port), proto=proto, v6=v6)

    __str__ = _endpoint_text


class DirectIP(NamedTuple("DirectIP", [("ip", int), ("port", int), ("v6", bool)])):
    """One backend server address (DIP)."""

    __slots__ = ()

    def __new__(cls, ip: int, port: int, v6: bool = False) -> "DirectIP":
        _check_endpoint(ip, port, v6)
        return tuple.__new__(cls, (ip, port, v6))

    @classmethod
    def parse(cls, text: str) -> "DirectIP":
        host, _, port = text.rpartition(":")
        host = host.strip("[]")
        ip, v6 = parse_ip(host)
        return cls(ip=ip, port=int(port), v6=v6)

    __str__ = _endpoint_text


class FiveTuple(NamedTuple):
    """A connection identifier."""

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    proto: int = TCP
    v6: bool = False

    def key_bytes(self) -> bytes:
        """Canonical match-key byte string (13 B IPv4 / 37 B IPv6)."""
        if self.v6:
            return struct.pack(
                ">16s16sHHB",
                self.src_ip.to_bytes(16, "big"),
                self.dst_ip.to_bytes(16, "big"),
                self.src_port,
                self.dst_port,
                self.proto,
            )
        return struct.pack(
            ">IIHHB",
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.proto,
        )

    @classmethod
    def from_key_bytes(cls, key: bytes) -> "FiveTuple":
        """The tuple whose ``key_bytes()`` is ``key`` (its width says v4/v6)."""
        if len(key) == IPV6_KEY_BYTES:
            src, dst, src_port, dst_port, proto = struct.unpack(">16s16sHHB", key)
            return cls(
                int.from_bytes(src, "big"), src_port,
                int.from_bytes(dst, "big"), dst_port, proto, True,
            )
        src_ip, dst_ip, src_port, dst_port, proto = struct.unpack(">IIHHB", key)
        return cls(src_ip, src_port, dst_ip, dst_port, proto, False)

    @property
    def key_bits(self) -> int:
        return len(self.key_bytes()) * 8

    def vip(self) -> VirtualIP:
        """The destination service address of this connection."""
        return VirtualIP(ip=self.dst_ip, port=self.dst_port, proto=self.proto, v6=self.v6)

    def __str__(self) -> str:
        src = _format_ip(self.src_ip, self.v6)
        dst = _format_ip(self.dst_ip, self.v6)
        return f"{src}:{self.src_port}->{dst}:{self.dst_port}/{self.proto}"


def five_tuple_for(vip: VirtualIP, src_ip: int, src_port: int) -> FiveTuple:
    """Build the 5-tuple of a client connection to a VIP."""
    return FiveTuple(
        src_ip=src_ip,
        src_port=src_port,
        dst_ip=vip.ip,
        dst_port=vip.port,
        proto=vip.proto,
        v6=vip.v6,
    )


#: Client source addresses: ``(ip, port)`` pairs enumerated from a
#: private range, 64,511 usable ephemeral ports (1024..65534) per IP.
_CLIENT_BASE_IP = 0x0A80_0000
_FIRST_PORT = 1024
_PORTS_PER_IP = 64511

#: ``FiveTuple.key_bytes``'s two layouts as packed numpy records:
#: ``>IIHHB`` and ``>16s16sHHB`` (each IPv6 address as two big-endian
#: 64-bit halves).  ``itemsize`` is the key width, 13 or 37 bytes.
_KEY_V4 = np.dtype(
    [("src", ">u4"), ("dst", ">u4"), ("sport", ">u2"), ("dport", ">u2"), ("proto", "u1")]
)
_KEY_V6 = np.dtype(
    [
        ("src_hi", ">u8"), ("src_lo", ">u8"), ("dst_hi", ">u8"), ("dst_lo", ">u8"),
        ("sport", ">u2"), ("dport", ">u2"), ("proto", "u1"),
    ]
)


class TupleFactory:
    """Deterministic generator of unique client 5-tuples towards VIPs.

    Enumerates (src ip, src port) pairs from a private client range so no
    two generated connections collide, which keeps ground truth simple for
    false-positive accounting.
    """

    def __init__(self) -> None:
        self._counter = 0

    def next_for(self, vip: VirtualIP) -> FiveTuple:
        ip_offset, port_offset = divmod(self._counter, _PORTS_PER_IP)
        self._counter += 1
        return five_tuple_for(
            vip, src_ip=_CLIENT_BASE_IP + ip_offset, src_port=_FIRST_PORT + port_offset
        )

    def take_keys(self, vip: VirtualIP, count: int) -> np.ndarray:
        """The key bytes of the next ``count`` tuples, packed in bulk.

        Row ``i`` of the returned void array (``V13`` / ``V37``) is
        ``next_for(vip).key_bytes()`` of the ``i``-th call, and the counter
        advances as far; ``tolist()`` yields the ``bytes`` objects.
        """
        if count < 0:
            raise ValueError("count must not be negative")
        first = self._counter
        self._counter = first + count
        ip_offset, port_offset = np.divmod(
            np.arange(first, first + count, dtype=np.uint64), np.uint64(_PORTS_PER_IP)
        )
        if vip.v6:
            rows = np.empty(count, dtype=_KEY_V6)
            rows["src_hi"] = 0
            rows["src_lo"] = ip_offset + np.uint64(_CLIENT_BASE_IP)
            rows["dst_hi"] = vip.ip >> 64
            rows["dst_lo"] = vip.ip & 0xFFFF_FFFF_FFFF_FFFF
        else:
            rows = np.empty(count, dtype=_KEY_V4)
            rows["src"] = ip_offset + np.uint64(_CLIENT_BASE_IP)
            rows["dst"] = vip.ip
        rows["sport"] = port_offset + np.uint64(_FIRST_PORT)
        rows["dport"] = vip.port
        rows["proto"] = vip.proto
        return rows.view(f"V{rows.dtype.itemsize}")
