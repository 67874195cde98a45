"""A P4-16-flavoured IR, packet parser, and the SilkRoad program.

The paper's prototype is ~400 lines of P4 compiled to a programmable
ASIC (§5.1); this package expresses the same data plane over a small
match-action IR and executes real packet bytes through it.  The program
is built from a :class:`~repro.core.config.SilkRoadConfig`, and the test
suite asserts it forwards exactly like the object model in
:mod:`repro.core` after ``SilkRoadP4.mirror(switch)``.
"""

from .context import InvalidHeaderAccess, PacketContext
from .emit import emit_p4, emit_to_file
from .parser import ParseError, build_packet, is_tcp_syn, parse_packet
from .pcap import PcapError, read_pcap, write_pcap
from .silkroad import (
    ForwardingResult,
    SilkRoadP4,
    UPDATE_NONE,
    UPDATE_STEP1,
    UPDATE_STEP2,
)
from .tables import (
    Action,
    ApplyResult,
    KeyField,
    MatchKind,
    NO_ACTION,
    Table,
    TableCapacityError,
    TableEntry,
)
from .types import (
    ETHERNET,
    FieldSpec,
    HeaderInstance,
    HeaderSpec,
    IPV4,
    IPV6,
    TCP,
    UDP,
    silkroad_metadata,
)

__all__ = [
    "Action",
    "ApplyResult",
    "ETHERNET",
    "FieldSpec",
    "ForwardingResult",
    "HeaderInstance",
    "HeaderSpec",
    "IPV4",
    "IPV6",
    "InvalidHeaderAccess",
    "KeyField",
    "MatchKind",
    "NO_ACTION",
    "PacketContext",
    "ParseError",
    "PcapError",
    "SilkRoadP4",
    "TCP",
    "Table",
    "TableCapacityError",
    "TableEntry",
    "UDP",
    "UPDATE_NONE",
    "UPDATE_STEP1",
    "UPDATE_STEP2",
    "build_packet",
    "emit_p4",
    "emit_to_file",
    "is_tcp_syn",
    "parse_packet",
    "read_pcap",
    "silkroad_metadata",
    "write_pcap",
]
