"""The per-packet execution context (headers + metadata buses)."""

from __future__ import annotations

from typing import Dict, Optional

from .types import (
    ETHERNET,
    HeaderInstance,
    HeaderSpec,
    IPV4,
    IPV6,
    STANDARD_METADATA,
    TCP,
    UDP,
    silkroad_metadata,
)


class PacketContext:
    """Everything a packet carries through the pipeline.

    Equivalent to P4's ``headers`` + ``metadata`` arguments: parsed header
    instances, the user metadata bus laid out by ``metadata`` (the default
    config's :func:`~repro.p4.types.silkroad_metadata` when omitted), and
    standard metadata.
    """

    def __init__(self, metadata: Optional[HeaderSpec] = None) -> None:
        self.headers: Dict[str, HeaderInstance] = {
            "ethernet": HeaderInstance(ETHERNET),
            "ipv4": HeaderInstance(IPV4),
            "ipv6": HeaderInstance(IPV6),
            "tcp": HeaderInstance(TCP),
            "udp": HeaderInstance(UDP),
        }
        self.meta = HeaderInstance(metadata or silkroad_metadata())
        self.meta.set_valid()
        self.standard = HeaderInstance(STANDARD_METADATA)
        self.standard.set_valid()
        #: IP protocol number recorded by the parser; survives the UDP->TCP
        #: key-slot normalization the SilkRoad ingress performs.
        self.l4_proto: Optional[int] = None

    def header(self, name: str) -> HeaderInstance:
        return self.headers[name]

    # -- field access by "header.field" path (table keys use this) --------

    def get(self, path: str) -> int:
        header, _, field = path.partition(".")
        if header == "meta":
            return self.meta[field]
        if header == "standard":
            return self.standard[field]
        instance = self.headers[header]
        if not instance.valid:
            raise InvalidHeaderAccess(f"reading {path} of an invalid header")
        return instance[field]

    def set(self, path: str, value: int) -> None:
        header, _, field = path.partition(".")
        if header == "meta":
            self.meta[field] = value
            return
        if header == "standard":
            self.standard[field] = value
            return
        instance = self.headers[header]
        if not instance.valid:
            raise InvalidHeaderAccess(f"writing {path} of an invalid header")
        instance[field] = value

    def is_valid(self, header: str) -> bool:
        return self.headers[header].valid

    # -- L4/L3 convenience views ------------------------------------------

    @property
    def ip_header(self) -> HeaderInstance:
        if self.headers["ipv4"].valid:
            return self.headers["ipv4"]
        if self.headers["ipv6"].valid:
            return self.headers["ipv6"]
        raise InvalidHeaderAccess("no IP header parsed")

    @property
    def l4_header(self) -> HeaderInstance:
        if self.headers["tcp"].valid:
            return self.headers["tcp"]
        if self.headers["udp"].valid:
            return self.headers["udp"]
        raise InvalidHeaderAccess("no L4 header parsed")

    def five_tuple_bytes(self) -> bytes:
        """Canonical connection key, matching FiveTuple.key_bytes()."""
        import struct

        ip = self.ip_header
        l4 = self.l4_header
        if self.l4_proto is not None:
            proto = self.l4_proto
        else:
            proto = 6 if self.headers["tcp"].valid else 17
        if ip.spec is IPV6:
            return struct.pack(
                ">16s16sHHB",
                ip["src_addr"].to_bytes(16, "big"),
                ip["dst_addr"].to_bytes(16, "big"),
                l4["src_port"],
                l4["dst_port"],
                proto,
            )
        return struct.pack(
            ">IIHHB",
            ip["src_addr"],
            ip["dst_addr"],
            l4["src_port"],
            l4["dst_port"],
            proto,
        )


class InvalidHeaderAccess(RuntimeError):
    """Raised when reading/writing a field of an unparsed header."""
