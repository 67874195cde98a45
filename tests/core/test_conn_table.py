"""Tests for ConnTable and the Figure 14 memory arithmetic."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.asicsim.cuckoo import TableFull
from repro.core.config import SilkRoadConfig
from repro.core import conn_table
from repro.core.conn_table import ConnTable
from repro.core.silkroad import SilkRoadSwitch
from repro.core.sram_cost import conn_entry, memory_saving, naive_conn_entry
from repro.deploy.fleet import FleetSilkRoad
from repro.netsim.flows import Connection


@pytest.fixture
def table() -> ConnTable:
    return ConnTable(SilkRoadConfig(conn_table_capacity=5000))


class TestConnTable:
    def test_insert_lookup_delete(self, table, keys):
        (key,) = keys(1)
        table.insert(key, 3)
        result = table.lookup(key)
        assert result.hit and result.value == 3
        assert table.get_exact(key) == 3
        table.delete(key)
        assert key not in table

    def test_capacity_honors_config(self, monkeypatch):
        monkeypatch.setattr(conn_table, "CONN_TABLE_TARGET_LOAD", 0.5)
        table = ConnTable(SilkRoadConfig(conn_table_capacity=10_000))
        assert table.capacity >= 20_000

    def test_sram_accounting_28bit_entries(self, table):
        # 4 entries per word -> 3.5 bytes per slot.
        assert table.sram_bytes == table.capacity // 4 * 14

    def test_bulk_load(self, keys):
        table = ConnTable(SilkRoadConfig(conn_table_capacity=3000))
        for i, key in enumerate(keys(2500)):
            table.insert(key, i % 64)
        assert len(table) == 2500
        table.check_invariants()

    def test_relocate_colliding_entry_noop_when_clean(self, table, keys):
        (key,) = keys(1)
        assert table.relocate_colliding_entry(key)  # nothing to resolve

    def test_relocate_colliding_entry_moves_the_hit_slots_owner(self, keys):
        """2-bit digests over four 4-bucket stages: nearly every outsider SYN
        hits a resident's slot.  The entry moved is the one the physical
        walk finds at the hit location, and nothing else moves."""
        table = ConnTable(SilkRoadConfig(conn_table_capacity=60, digest_bits=2))
        assert table.capacity == 64
        pool = keys(400)
        residents, outsiders = pool[:200], pool[200:]
        for i, key in enumerate(residents):
            try:
                table.insert(key, i % 64)
            except TableFull:
                pass
        assert table.load_factor > 0.6
        relocated = 0
        for key in outsiders:
            result = table.lookup(key)
            if not result.false_positive:
                continue
            before = {e[3]: e[:3] for e in table.entries()}
            (owner,) = [k for k, loc in before.items() if loc == result.location]
            moved = table.relocate_colliding_entry(key)
            after = {e[3]: e[:3] for e in table.entries()}
            changed = [k for k in before if before[k] != after[k]]
            assert changed == ([owner] if moved else [])
            relocated += moved
        assert relocated > 0
        table.check_invariants()


class TestHostMemory:
    """An empty ConnTable costs the host nothing per slot: construction
    bytes (by ``tracemalloc``) do not follow ``conn_table_capacity``."""

    @staticmethod
    def construction_bytes(build) -> int:
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        del built
        return grown

    def test_default_switch_is_small(self):
        # A million-entry ConnTable; measured 64 KB (8.6 MB with a slot list).
        assert self.construction_bytes(SilkRoadSwitch) < 256 * 1024

    def test_fleet_of_200k_tables_is_small(self):
        # Eight 213,344-slot tables; measured 0.47 MB (14.1 MB with slot lists).
        grown = self.construction_bytes(
            lambda: FleetSilkRoad(
                num_switches=8,
                config=SilkRoadConfig(conn_table_capacity=200_000),
            )
        )
        assert grown < 1024 * 1024, grown


class TestBytesPerLiveConnection:
    """What a live, installed connection costs the switch's host memory:
    its state, its ConnTable row, match and below-home registrations, its
    decision and pending-index bookkeeping."""

    def test_installed_connection_stays_small(self, vip, dips, tuples):
        count = 20_000
        switch = SilkRoadSwitch()  # a million-entry ConnTable
        switch.announce_vip(vip, dips)
        conns = [
            Connection(conn_id=i, key=tuples.next_for(vip).key_bytes(), vip=vip,
                       start=i * 1e-4, duration=1_000.0)
            for i in range(count)
        ]
        for conn in conns:  # the workload's own cached fields are not the switch's
            conn.key_hash
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for conn in conns:
            switch.queue.run_until(conn.start)
            switch.on_connection_arrival(conn)
        switch.finalize()
        switch.queue.run_until(conns[-1].start + 5.0)
        per_conn = (tracemalloc.get_traced_memory()[0] - before) / count
        tracemalloc.stop()
        assert len(switch.conn_table) == count
        assert switch.pending_connections() == 0
        # Measured 438 with the ConnTable entry a row of columns; 589 with a
        # Slot object per entry, 835 registering every resident in all four
        # stages with a key set per VIP.
        assert per_conn <= 480, per_conn


class TestFig14Arithmetic:
    def test_paper_ipv6_entry_sizes(self):
        # 37-byte key + 18-byte action ~ 55 bytes/entry before packing.
        layout = naive_conn_entry(ipv6=True)
        assert layout.key_bits == 296
        assert layout.action_bits == 144

    def test_naive_10m_ipv6_exceeds_asic_sram(self):
        # The paper's motivating arithmetic: ~550 MB for 10 M connections.
        size = naive_conn_entry(ipv6=True).bytes_for(10_000_000)
        assert size > 500e6

    def test_silkroad_10m_fits(self):
        size = conn_entry().bytes_for(10_000_000)
        assert size < 40e6  # 35 MB: fits 50-100 MB ASICs

    def test_digest_version_layout_is_28_bits(self):
        assert conn_entry().entry_bits == 28

    def test_saving_ordering(self):
        # digest+version saves more than digest-only, which saves more
        # than nothing.
        both = memory_saving(1_000_000, ipv6=True)
        digest = memory_saving(1_000_000, ipv6=True, use_version=False)
        none = memory_saving(1_000_000, ipv6=True, use_digest=False, use_version=False)
        assert both > digest > none == 0.0

    def test_paper_anchor_ipv6_savings(self):
        # Backends (IPv6): digest+version should approach ~90 %+ before
        # pool overhead; >40 % in all configurations.
        assert memory_saving(1_000_000, ipv6=True) > 0.85
        assert memory_saving(1_000_000, ipv6=False) > 0.40

    def test_pool_overhead_charged(self):
        free = memory_saving(100_000, ipv6=True)
        charged = memory_saving(100_000, ipv6=True, dip_pool_bytes=10_000_000)
        assert charged < free

    def test_saving_never_negative(self):
        assert memory_saving(100, ipv6=False, dip_pool_bytes=10**9) == 0.0
