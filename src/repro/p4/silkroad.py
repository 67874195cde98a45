"""The SilkRoad data plane as a P4-style program (§5.1, Figure 10).

The paper's prototype adds ~400 lines of P4 to ``switch.p4``; this module
is the equivalent program over :mod:`repro.p4`'s IR, plus the runtime
(control-plane) API the switch software would use:

Tables (Figure 10):

* ``vip_table_v4`` / ``vip_table_v6`` — (dst addr, dst port, proto) ->
  ``set_vip(vip_index, version, old_version, in_update)``,
* ``conn_table`` — (stage, bucket, digest) -> ``set_conn_version(v)``;
  the ingress control applies it once per cuckoo stage with the stage's
  own hash pair, first digest match wins (false positives and all),
* ``dip_group_table`` — (vip_index, version) -> ``select_member(base,
  size)`` (ECMP-group indirection: member = base + hash % size),
* ``dip_member_table`` — member index -> ``rewrite(dip, port)``,
* the **TransitTable** Bloom filter on a register array, written in
  step 1 and read on ConnTable misses in step 2,
* a learn trigger on ConnTable miss (the learning-filter event).

A :class:`~repro.core.config.SilkRoadConfig` is the program's one input:
ConnTable geometry, digest and version widths and the TransitTable size
come from it, and every hash seed from the object-model module that owns
it, so the twin computes the same buckets, digests, Bloom cells and pool
slots as the switch with its own hash code.  :meth:`SilkRoadP4.mirror`
builds a twin of a live :class:`~repro.core.silkroad.SilkRoadSwitch` and
programs it through the runtime API from the switch's public tables, so
tests can assert the packet-level P4 pipeline forwards exactly like the
object model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..asicsim.cuckoo import stage_hash_units
from ..asicsim.hashing import HashUnit, base_hash, hash_family
from ..asicsim.registers import BLOOM_SEED, RegisterArray
from ..core.config import SilkRoadConfig
from ..core.conn_table import CONN_TABLE_STAGES, CONN_TABLE_WAYS, conn_table_buckets
from ..core.dip_pool_table import SELECT_SEED
from ..core.pcc_update import Phase
from ..core.transit_table import TRANSIT_HASH_WAYS
from ..netsim.packet import DirectIP, VirtualIP
from .context import PacketContext
from .parser import is_tcp_syn, parse_packet
from .tables import Action, KeyField, Table, TableEntry
from .types import silkroad_metadata

#: Update-state encoding in ``meta.vip_in_update``.
UPDATE_NONE = 0
UPDATE_STEP1 = 1
UPDATE_STEP2 = 2


@dataclass(frozen=True)
class ForwardingResult:
    """What happened to one packet."""

    forwarded: bool
    dip_ip: Optional[int] = None
    dip_port: Optional[int] = None
    version: Optional[int] = None
    conn_table_hit: bool = False
    transit_hit: bool = False
    learned: bool = False
    redirected_to_cpu: bool = False
    dropped: bool = False

    @property
    def dip(self) -> Optional[DirectIP]:
        if self.dip_ip is None or self.dip_port is None:
            return None
        return DirectIP(ip=self.dip_ip, port=self.dip_port, v6=self.dip_ip > 0xFFFFFFFF)


class SilkRoadP4:
    """The compiled SilkRoad pipeline: parser + tables + registers."""

    def __init__(self, config: SilkRoadConfig = SilkRoadConfig()) -> None:
        self.config = config
        #: The metadata bus, its widths derived from ``config``.
        self.metadata = silkroad_metadata(config)
        self.conn_buckets_per_stage = conn_table_buckets(config)
        # The object model's seeds; the hashing below is the twin's own.
        self._index_units, self._digest_units = stage_hash_units(CONN_TABLE_STAGES)
        self._select_unit = HashUnit(seed=SELECT_SEED)
        self._transit_units = hash_family(TRANSIT_HASH_WAYS, base_seed=BLOOM_SEED)
        self.transit_register = RegisterArray(config.transit_table_bytes * 8, width=1)

        # --- actions ------------------------------------------------------
        def set_vip(ctx, vip_index, version, old_version, in_update):
            ctx.set("meta.vip_index", vip_index)
            ctx.set("meta.pool_version", version)
            ctx.set("meta.old_version", old_version)
            ctx.set("meta.vip_in_update", in_update)

        def set_conn_version(ctx, version):
            ctx.set("meta.pool_version", version)
            ctx.set("meta.conn_hit", 1)

        def select_member(ctx, base, size):
            offset = self._select_unit.index(ctx.five_tuple_bytes(), size)
            ctx.set("meta.member_index", base + offset)

        def rewrite_dst(ctx, dip_ip, dip_port):
            ip = ctx.ip_header
            ip["dst_addr"] = dip_ip
            ctx.l4_header["dst_port"] = dip_port

        self._set_vip = Action("set_vip", set_vip)
        self._set_conn_version = Action("set_conn_version", set_conn_version)
        self._select_member = Action("select_member", select_member)
        self._rewrite_dst = Action("rewrite_dst", rewrite_dst)

        def mark_drop(ctx):
            ctx.set("meta.drop", 1)

        self._mark_drop = Action("mark_drop", mark_drop)

        # --- tables ---------------------------------------------------------
        # UDP dst ports are normalized into the tcp header slot before the
        # VIP tables apply, so one key shape serves both protocols (the
        # real switch.p4 does this with shared L4 metadata).
        self.vip_table_v4 = Table(
            "vip_table_v4",
            key=[
                KeyField("ipv4.dst_addr"),
                KeyField("tcp.dst_port"),
            ],
            actions=[self._set_vip],
            default_action=self._mark_drop,
        )
        self.vip_table_v6 = Table(
            "vip_table_v6",
            key=[
                KeyField("ipv6.dst_addr"),
                KeyField("tcp.dst_port"),
            ],
            actions=[self._set_vip],
            default_action=self._mark_drop,
        )
        self.conn_table = Table(
            "conn_table",
            key=[
                KeyField("meta.conn_stage"),
                KeyField("meta.conn_bucket"),
                KeyField("meta.conn_digest"),
            ],
            actions=[self._set_conn_version],
            size=CONN_TABLE_STAGES * self.conn_buckets_per_stage * CONN_TABLE_WAYS,
        )
        self.dip_group_table = Table(
            "dip_group_table",
            key=[KeyField("meta.vip_index"), KeyField("meta.pool_version")],
            actions=[self._select_member],
            default_action=self._mark_drop,
            size=1 << self.metadata.field("vip_index").bits,
        )
        self.dip_member_table = Table(
            "dip_member_table",
            key=[KeyField("meta.member_index")],
            actions=[self._rewrite_dst],
            default_action=self._mark_drop,
            size=1 << self.metadata.field("member_index").bits,
        )

        # Control-plane bookkeeping.
        self._vip_indexes: Dict[VirtualIP, int] = {}
        self._next_vip_index = 1
        self._next_member_base = 0
        self._group_bases: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.learned_digests: List[Tuple[int, int, int, bytes]] = []

    # ------------------------------------------------------------------
    # Control-plane API (what the switch CPU programs)
    # ------------------------------------------------------------------

    def vip_index(self, vip: VirtualIP) -> int:
        index = self._vip_indexes.get(vip)
        if index is None:
            index = self._next_vip_index
            self._next_vip_index += 1
            self._vip_indexes[vip] = index
        return index

    def program_vip(
        self,
        vip: VirtualIP,
        version: int,
        old_version: Optional[int] = None,
        update_state: int = UPDATE_NONE,
    ) -> None:
        """(Re)program a VIP's entry in the v4/v6 VIP table."""
        index = self.vip_index(vip)
        table = self.vip_table_v6 if vip.v6 else self.vip_table_v4
        match = (vip.ip, vip.port)
        try:
            table.remove(match)
        except KeyError:
            pass
        table.insert(
            TableEntry(
                match=match,
                action=self._set_vip,
                params={
                    "vip_index": index,
                    "version": version,
                    "old_version": old_version if old_version is not None else version,
                    "in_update": update_state,
                },
            )
        )

    def program_pool(self, vip: VirtualIP, version: int, slots) -> None:
        """Program one (VIP, version) pool into group + member tables."""
        index = self.vip_index(vip)
        old = self._group_bases.pop((index, version), None)
        if old is not None:
            base, size = old
            self.dip_group_table.remove((index, version))
            for offset in range(size):
                self.dip_member_table.remove((base + offset,))
        base = self._next_member_base
        self._next_member_base += len(slots)
        self._group_bases[(index, version)] = (base, len(slots))
        self.dip_group_table.insert(
            TableEntry(
                match=(index, version),
                action=self._select_member,
                params={"base": base, "size": len(slots)},
            )
        )
        for offset, dip in enumerate(slots):
            self.dip_member_table.insert(
                TableEntry(
                    match=(base + offset,),
                    action=self._rewrite_dst,
                    params={"dip_ip": dip.ip, "dip_port": dip.port},
                )
            )

    def conn_profile(self, key: bytes) -> List[Tuple[int, int]]:
        """(bucket, digest) of a connection key at every stage.

        Single-pass: one byte hash of the key, then per-stage seeded
        derivations — the same scheme (and therefore the same values) as
        the object model's cuckoo table.
        """
        base = base_hash(key)
        buckets, bits = self.conn_buckets_per_stage, self.config.digest_bits
        return [
            (index.index_base(base, buckets), digest.digest_base(base, bits))
            for index, digest in zip(self._index_units, self._digest_units)
        ]

    def install_entry(self, stage: int, bucket: int, digest: int, version: int) -> None:
        """Write one ConnTable entry at its physical (stage, bucket, digest)."""
        self.conn_table.insert(
            TableEntry(
                match=(stage, bucket, digest),
                action=self._set_conn_version,
                params={"version": version},
            )
        )

    def install_connection(self, key: bytes, stage: int, version: int) -> None:
        bucket, digest = self.conn_profile(key)[stage]
        self.install_entry(stage, bucket, digest, version)

    def transit_set(self, cells: Iterable[int]) -> None:
        """Set TransitTable register cells (what a step-1 mark writes)."""
        for index in cells:
            self.transit_register.write(index, 1)

    def transit_mark(self, key: bytes) -> None:
        base = base_hash(key)
        size = self.transit_register.size
        self.transit_set(unit.index_base(base, size) for unit in self._transit_units)

    def _transit_check(self, key: bytes) -> bool:
        base = base_hash(key)
        return all(
            self.transit_register.read(unit.index_base(base, self.transit_register.size))
            for unit in self._transit_units
        )

    # ------------------------------------------------------------------
    # Ingress control (Figure 10)
    # ------------------------------------------------------------------

    def process(self, frame: bytes) -> ForwardingResult:
        """Run one packet through parser + SilkRoad ingress."""
        ctx = parse_packet(frame, PacketContext(self.metadata))
        if not (ctx.is_valid("tcp") or ctx.is_valid("udp")):
            return ForwardingResult(forwarded=False, dropped=True)
        # UDP packets reuse the tcp.dst_port key slot via normalization.
        if ctx.is_valid("udp") and not ctx.is_valid("tcp"):
            tcp = ctx.header("tcp")
            tcp.set_valid()
            tcp["src_port"] = ctx.header("udp")["src_port"]
            tcp["dst_port"] = ctx.header("udp")["dst_port"]

        # --- VIPTable: which service, which version(s), update state.
        vip_table = self.vip_table_v6 if ctx.is_valid("ipv6") else self.vip_table_v4
        vip_result = vip_table.apply(ctx)
        if not vip_result.hit:
            return ForwardingResult(forwarded=False, dropped=True)

        key = ctx.five_tuple_bytes()
        new_version = ctx.get("meta.pool_version")
        old_version = ctx.get("meta.old_version")
        update_state = ctx.get("meta.vip_in_update")

        # --- ConnTable: one lookup per cuckoo stage, first hit wins.
        conn_hit = False
        for stage, (bucket, digest) in enumerate(self.conn_profile(key)):
            ctx.set("meta.conn_stage", stage)
            ctx.set("meta.conn_bucket", bucket)
            ctx.set("meta.conn_digest", digest)
            if self.conn_table.apply(ctx).hit:
                conn_hit = True
                break

        transit_hit = False
        learned = False
        redirected = False
        if conn_hit:
            # A SYN hitting an existing entry indicates a digest false
            # positive: redirect to the CPU (§4.2).
            if is_tcp_syn(ctx):
                redirected = True
        else:
            learned = True  # new connection: trigger the learning filter
            if update_state == UPDATE_STEP1:
                # Remember the pending connection (write-only phase).
                self.transit_mark(key)
            elif update_state == UPDATE_STEP2:
                transit_hit = self._transit_check(key)
                if transit_hit:
                    ctx.set("meta.pool_version", old_version)
                    if is_tcp_syn(ctx):
                        redirected = True  # potential filter false positive
            self.learned_digests.append(
                (
                    ctx.get("meta.conn_stage"),
                    ctx.get("meta.conn_bucket"),
                    ctx.get("meta.conn_digest"),
                    key,
                )
            )

        # --- DIP selection through the versioned pool tables.
        if not self.dip_group_table.apply(ctx).hit:
            return ForwardingResult(forwarded=False, dropped=True)
        if not self.dip_member_table.apply(ctx).hit:
            return ForwardingResult(forwarded=False, dropped=True)

        ip = ctx.ip_header
        return ForwardingResult(
            forwarded=True,
            dip_ip=ip["dst_addr"],
            dip_port=ctx.l4_header["dst_port"],
            version=ctx.get("meta.pool_version"),
            conn_table_hit=conn_hit,
            transit_hit=transit_hit,
            learned=learned,
            redirected_to_cpu=redirected,
        )

    # ------------------------------------------------------------------
    # State mirroring from the object model
    # ------------------------------------------------------------------

    @classmethod
    def mirror(cls, switch) -> "SilkRoadP4":
        """A twin of a live SilkRoadSwitch, programmed from its tables.

        The twin is built from ``switch.config`` and written through the
        runtime API from the switch's public surfaces only.  Each ConnTable
        entry goes in at the (stage, bucket, digest) the switch reports,
        never re-derived from its key, so a geometry or hash disagreement
        between the planes shows up as a miss.  After mirroring,
        ``process`` forwards packets exactly as the object model decides,
        which the test suite asserts.
        """
        p4 = cls(switch.config)
        pools = switch.dip_pools
        for vip in switch.vip_table.vips():
            entry = switch.vip_table.lookup(vip)
            if entry.in_transition:
                state = UPDATE_STEP2
            elif switch.coordinator.phase(vip) is Phase.STEP1:
                state = UPDATE_STEP1
            else:
                state = UPDATE_NONE
            p4.program_vip(
                vip,
                version=entry.current_version,
                old_version=entry.old_version,
                update_state=state,
            )
            for version in pools.live_versions(vip):
                p4.program_pool(vip, version, pools.pool(vip, version).slots)
        for stage, bucket, _way, _key, digest, version in switch.conn_table.entries():
            p4.install_entry(stage, bucket, digest, version)
        p4.transit_set(switch.transit.nonzero_cells())
        return p4
