"""SRAM cost model: what each SilkRoad table stores per entry (§4.2).

The paper's memory argument is one layout table.  A connection's 37-byte
IPv6 5-tuple is matched on a 16-bit digest and its 18-byte DIP is replaced
by a 6-bit pool version, so with the per-entry packing overhead a ConnTable
entry is 28 bits and four of them fill one 112-bit SRAM word.  The VIPTable
maps a VIP to (old, new) versions and the DIPPoolTable stores the DIPs once
per live pool version.

Every consumer prices SRAM through the layouts below: the switch's own
``sram_bytes`` gauge, Table 2, Figures 12 and 14 and the network-wide VIP
assignment.  Word packing itself is generic (:mod:`repro.asicsim.sram`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asicsim.sram import ENTRY_OVERHEAD_BITS, bytes_for_entries, words_for_entries
from .config import SilkRoadConfig


@dataclass(frozen=True)
class AddressWidths:
    """Header field widths (bits) of one address family."""

    #: src IP, dst IP, proto and two ports.
    five_tuple_bits: int
    #: A backend: address and port.
    dip_bits: int
    #: A VIP match key: dst IP, dst port and proto.
    vip_key_bits: int


IPV4 = AddressWidths(five_tuple_bits=13 * 8, dip_bits=6 * 8, vip_key_bits=32 + 16 + 8)
IPV6 = AddressWidths(five_tuple_bits=37 * 8, dip_bits=18 * 8, vip_key_bits=128 + 16 + 8)


def widths(ipv6: bool) -> AddressWidths:
    return IPV6 if ipv6 else IPV4


@dataclass(frozen=True)
class EntryLayout:
    """Bit layout of one exact-match entry: key, action, packing overhead."""

    key_bits: int
    action_bits: int

    @property
    def entry_bits(self) -> int:
        return self.key_bits + self.action_bits + ENTRY_OVERHEAD_BITS

    def words_for(self, num_entries: int) -> int:
        """SRAM words ``num_entries`` word-packed entries occupy."""
        return words_for_entries(num_entries, self.entry_bits)

    def bytes_for(self, num_entries: int) -> int:
        """SRAM bytes ``num_entries`` word-packed entries occupy."""
        return bytes_for_entries(num_entries, self.entry_bits)


#: The paper's design point: 16-bit digests, 6-bit versions.
PAPER = SilkRoadConfig()


def conn_entry(config: SilkRoadConfig = PAPER) -> EntryLayout:
    """SilkRoad's ConnTable entry: digest key, pool-version action."""
    return EntryLayout(key_bits=config.digest_bits, action_bits=config.version_bits)


def naive_conn_entry(ipv6: bool) -> EntryLayout:
    """Full 5-tuple -> full DIP (the paper's 55-byte IPv6 strawman)."""
    w = widths(ipv6)
    return EntryLayout(key_bits=w.five_tuple_bits, action_bits=w.dip_bits)


def digest_only_conn_entry(ipv6: bool, config: SilkRoadConfig = PAPER) -> EntryLayout:
    """Digest key, full DIP action."""
    return EntryLayout(key_bits=config.digest_bits, action_bits=widths(ipv6).dip_bits)


def vip_entry(ipv6: bool, config: SilkRoadConfig = PAPER) -> EntryLayout:
    """VIPTable entry: VIP key -> the (old, new) version pair of step 2."""
    return EntryLayout(
        key_bits=widths(ipv6).vip_key_bits, action_bits=2 * config.version_bits
    )


def pool_member_entry(ipv6: bool) -> EntryLayout:
    """DIPPoolTable member: one DIP per (VIP, version, slot), ECMP-style."""
    return EntryLayout(key_bits=0, action_bits=widths(ipv6).dip_bits)


def memory_saving(
    num_connections: int,
    ipv6: bool,
    use_digest: bool = True,
    use_version: bool = True,
    dip_pool_bytes: int = 0,
) -> float:
    """Fractional ConnTable SRAM saving versus the naive layout (Figure 14).

    ``dip_pool_bytes`` adds the DIPPoolTable overhead that versioning
    requires (the extra indirection is charged against the saving).
    """
    base = naive_conn_entry(ipv6).bytes_for(num_connections)
    if base == 0:
        return 0.0
    if use_digest and use_version:
        cost = conn_entry().bytes_for(num_connections) + dip_pool_bytes
    elif use_digest:
        cost = digest_only_conn_entry(ipv6).bytes_for(num_connections)
    elif use_version:
        layout = EntryLayout(widths(ipv6).five_tuple_bits, PAPER.version_bits)
        cost = layout.bytes_for(num_connections) + dip_pool_bytes
    else:
        cost = base
    return max(0.0, 1.0 - cost / base)
