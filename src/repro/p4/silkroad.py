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

:meth:`SilkRoadP4.mirror_from` programs all of it from a live
:class:`~repro.core.silkroad.SilkRoadSwitch`, so tests can assert the
packet-level P4 pipeline forwards exactly like the object model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..asicsim.hashing import HashUnit, base_hash, hash_family
from ..asicsim.registers import RegisterArray
from ..netsim.packet import DirectIP, VirtualIP
from .context import PacketContext
from .parser import is_tcp_syn, parse_packet
from .tables import Action, KeyField, MatchKind, Table, TableEntry

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

    def __init__(
        self,
        conn_stages: int = 4,
        conn_buckets_per_stage: int = 4096,
        digest_bits: int = 16,
        transit_bytes: int = 256,
        transit_hash_ways: int = 4,
        seed: int = 0x51CC_0AD0,
        select_seed: int = 0xD1B0,
    ) -> None:
        self.conn_stages = conn_stages
        self.conn_buckets_per_stage = conn_buckets_per_stage
        self.digest_bits = digest_bits
        # The same hash families the ASIC model uses, so mirrored state
        # behaves identically.
        self._index_units = hash_family(conn_stages, base_seed=seed)
        self._digest_units = hash_family(conn_stages, base_seed=seed ^ 0xD16E57)
        self._select_unit = HashUnit(seed=select_seed)
        self._transit_units = hash_family(transit_hash_ways, base_seed=0xB100F)
        self.transit_register = RegisterArray(transit_bytes * 8, width=1)

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
            size=1 << 22,
        )
        self.dip_group_table = Table(
            "dip_group_table",
            key=[KeyField("meta.vip_index"), KeyField("meta.pool_version")],
            actions=[self._select_member],
            default_action=self._mark_drop,
            size=1 << 16,
        )
        self.dip_member_table = Table(
            "dip_member_table",
            key=[KeyField("meta.member_index")],
            actions=[self._rewrite_dst],
            default_action=self._mark_drop,
            size=1 << 24,
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

    def drop_pool(self, vip: VirtualIP, version: int) -> None:
        index = self.vip_index(vip)
        entry = self._group_bases.pop((index, version), None)
        if entry is None:
            return
        base, size = entry
        self.dip_group_table.remove((index, version))
        for offset in range(size):
            self.dip_member_table.remove((base + offset,))

    def conn_profile(self, key: bytes) -> List[Tuple[int, int]]:
        """(bucket, digest) of a connection key at every stage.

        Single-pass: one byte hash of the key, then per-stage seeded
        derivations — the same scheme (and therefore the same values) as
        the object model's cuckoo table.
        """
        base = base_hash(key)
        return [
            (
                self._index_units[s].index_base(base, self.conn_buckets_per_stage),
                self._digest_units[s].digest_base(base, self.digest_bits),
            )
            for s in range(self.conn_stages)
        ]

    def install_connection(self, key: bytes, stage: int, version: int) -> None:
        bucket, digest = self.conn_profile(key)[stage]
        self.conn_table.insert(
            TableEntry(
                match=(stage, bucket, digest),
                action=self._set_conn_version,
                params={"version": version},
            )
        )

    def remove_connection(self, key: bytes, stage: int) -> None:
        bucket, digest = self.conn_profile(key)[stage]
        self.conn_table.remove((stage, bucket, digest))

    def transit_mark(self, key: bytes) -> None:
        base = base_hash(key)
        for unit in self._transit_units:
            self.transit_register.write(
                unit.index_base(base, self.transit_register.size), 1
            )

    def transit_clear(self) -> None:
        self.transit_register.clear()

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
        ctx = parse_packet(frame)
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

    def mirror_from(self, switch) -> None:
        """Program every table from a live SilkRoadSwitch.

        After mirroring, ``process`` forwards packets exactly as the
        object model decides (same hash seeds, same pools, same pending
        filter), which the test suite asserts.
        """
        from ..core.silkroad import SilkRoadSwitch  # local: avoid cycle

        assert isinstance(switch, SilkRoadSwitch)
        # VIPs and update state.
        for vip in switch.vip_table.vips():
            entry = switch.vip_table.lookup(vip)
            from ..core.pcc_update import Phase

            phase = switch.coordinator.phase(vip)
            if entry.in_transition:
                state = UPDATE_STEP2
            elif phase is Phase.STEP1:
                state = UPDATE_STEP1
            else:
                state = UPDATE_NONE
            self.program_vip(
                vip,
                version=entry.current_version,
                old_version=entry.old_version,
                update_state=state,
            )
            pools = switch.dip_pools
            for version in pools.live_versions(vip):
                self.program_pool(vip, version, pools.pool(vip, version).slots)
        # ConnTable entries (stage + bucket + digest per resident key).
        self.conn_table.clear()
        cuckoo = switch.conn_table._table
        self.conn_buckets_per_stage = cuckoo.buckets_per_stage
        self.conn_stages = cuckoo.stages
        self._index_units = cuckoo._index_units
        self._digest_units = cuckoo._digest_units
        for stage, bucket, _way, _key, digest, version in switch.conn_table.entries():
            self.conn_table.insert(
                TableEntry(
                    match=(stage, bucket, digest),
                    action=self._set_conn_version,
                    params={"version": version},
                )
            )
        # TransitTable contents: the switch's register size and set cells.
        self.transit_register = RegisterArray(switch.transit.size_bytes * 8, width=1)
        for index in switch.transit.nonzero_cells():
            self.transit_register.write(index, 1)
