"""P4-style header types and instances.

The paper's prototype is ~400 lines of P4 on top of ``switch.p4``.  This
package models the relevant subset of P4-16: headers are named bundles of
fixed-width fields; a parsed packet carries header *instances* (field
values + validity) plus metadata buses.  The SilkRoad program
(:mod:`repro.p4.silkroad`) is then expressed as match-action tables over
these headers, and the interpreter executes packets through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from ..core.config import SilkRoadConfig
from ..core.conn_table import CONN_TABLE_STAGES, conn_table_buckets


@dataclass(frozen=True)
class FieldSpec:
    """One header field: a name and a bit width."""

    name: str
    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError("field width must be positive")

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class HeaderSpec:
    """A named, ordered bundle of fields (a P4 ``header`` type)."""

    name: str
    fields: Tuple[FieldSpec, ...]

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"{self.name} has no field {name!r}")

    @property
    def bits(self) -> int:
        return sum(f.bits for f in self.fields)

    @property
    def bytes(self) -> int:
        if self.bits % 8:
            raise ValueError(f"{self.name} is not byte aligned")
        return self.bits // 8


class HeaderInstance:
    """A header's runtime state: validity plus field values."""

    def __init__(self, spec: HeaderSpec) -> None:
        self.spec = spec
        self.valid = False
        self._values: Dict[str, int] = {f.name: 0 for f in spec.fields}

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __setitem__(self, name: str, value: int) -> None:
        spec = self.spec.field(name)
        if not 0 <= value <= spec.max_value:
            raise ValueError(
                f"{self.spec.name}.{name} = {value} exceeds {spec.bits} bits"
            )
        self._values[name] = value

    def set_valid(self) -> None:
        self.valid = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "valid" if self.valid else "invalid"
        return f"<{self.spec.name} {state} {self._values}>"


# ----------------------------------------------------------------------
# Standard headers used by the SilkRoad program.
# ----------------------------------------------------------------------

ETHERNET = HeaderSpec(
    "ethernet",
    (
        FieldSpec("dst_addr", 48),
        FieldSpec("src_addr", 48),
        FieldSpec("ether_type", 16),
    ),
)

IPV4 = HeaderSpec(
    "ipv4",
    (
        FieldSpec("version", 4),
        FieldSpec("ihl", 4),
        FieldSpec("diffserv", 8),
        FieldSpec("total_len", 16),
        FieldSpec("identification", 16),
        FieldSpec("flags", 3),
        FieldSpec("frag_offset", 13),
        FieldSpec("ttl", 8),
        FieldSpec("protocol", 8),
        FieldSpec("hdr_checksum", 16),
        FieldSpec("src_addr", 32),
        FieldSpec("dst_addr", 32),
    ),
)

IPV6 = HeaderSpec(
    "ipv6",
    (
        FieldSpec("version", 4),
        FieldSpec("traffic_class", 8),
        FieldSpec("flow_label", 20),
        FieldSpec("payload_len", 16),
        FieldSpec("next_hdr", 8),
        FieldSpec("hop_limit", 8),
        FieldSpec("src_addr", 128),
        FieldSpec("dst_addr", 128),
    ),
)

TCP = HeaderSpec(
    "tcp",
    (
        FieldSpec("src_port", 16),
        FieldSpec("dst_port", 16),
        FieldSpec("seq_no", 32),
        FieldSpec("ack_no", 32),
        FieldSpec("data_offset", 4),
        FieldSpec("reserved", 4),
        FieldSpec("flags", 8),
        FieldSpec("window", 16),
        FieldSpec("checksum", 16),
        FieldSpec("urgent_ptr", 16),
    ),
)

UDP = HeaderSpec(
    "udp",
    (
        FieldSpec("src_port", 16),
        FieldSpec("dst_port", 16),
        FieldSpec("length", 16),
        FieldSpec("checksum", 16),
    ),
)

#: TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17


def _bits_for(count: int) -> int:
    """Width of a field that holds ``0 .. count - 1``."""
    return max((count - 1).bit_length(), 1)


@lru_cache(maxsize=16)
def silkroad_metadata(config: SilkRoadConfig = SilkRoadConfig()) -> HeaderSpec:
    """Metadata the SilkRoad control flow carries between tables under
    ``config`` (the paper notes these cost under 1 % of PHV bits).

    The ConnTable fields are as wide as the switch's geometry: a stage
    index, a bucket index of ``config``'s table, a ``digest_bits`` digest
    and ``version_bits`` versions.  ``vip_index`` and ``member_index`` are
    the twin's own addressing and size its group and member tables.
    """
    return HeaderSpec(
        "silkroad_md",
        (
            FieldSpec("conn_stage", _bits_for(CONN_TABLE_STAGES)),
            FieldSpec("conn_bucket", _bits_for(conn_table_buckets(config))),
            FieldSpec("conn_digest", config.digest_bits),
            FieldSpec("pool_version", config.version_bits),
            FieldSpec("old_version", config.version_bits),
            # 0 = no update in flight, 1 = step 1 (filter write-only),
            # 2 = step 2 (filter read-only).
            FieldSpec("vip_in_update", 2),
            FieldSpec("conn_hit", 1),
            FieldSpec("transit_hit", 1),
            FieldSpec("vip_index", 16),
            FieldSpec("member_index", 24),
            FieldSpec("redirect_to_cpu", 1),
            FieldSpec("drop", 1),
            FieldSpec("learn", 1),
        ),
    )


STANDARD_METADATA = HeaderSpec(
    "standard_md",
    (
        FieldSpec("ingress_port", 9),
        FieldSpec("egress_spec", 9),
        FieldSpec("packet_length", 16),
    ),
)
