"""Tests for the VIP -> version table."""

from __future__ import annotations

import pytest

from repro.core.sram_cost import vip_entry
from repro.core.vip_table import VipTable
from repro.netsim.packet import VirtualIP

VIP = VirtualIP.parse("20.0.0.1:80")


@pytest.fixture
def table() -> VipTable:
    t = VipTable()
    t.install(VIP, version=0)
    return t


class TestBasics:
    def test_install_and_lookup(self, table):
        entry = table.lookup(VIP)
        assert entry.current_version == 0
        assert not entry.in_transition

    def test_duplicate_install_rejected(self, table):
        with pytest.raises(ValueError):
            table.install(VIP, version=1)

    def test_unknown_vip_raises(self):
        with pytest.raises(KeyError):
            VipTable().lookup(VIP)

    def test_set_version(self, table):
        table.set_version(VIP, 5)
        assert table.lookup(VIP).current_version == 5


class TestTransition:
    def test_begin_exposes_both_versions(self, table):
        table.begin_transition(VIP, new_version=1)
        entry = table.lookup(VIP)
        assert entry.in_transition
        assert entry.current_version == 1
        assert entry.old_version == 0

    def test_end_drops_old(self, table):
        table.begin_transition(VIP, new_version=1)
        table.end_transition(VIP)
        entry = table.lookup(VIP)
        assert not entry.in_transition
        assert entry.current_version == 1
        assert entry.old_version is None

    def test_nested_transition_rejected(self, table):
        table.begin_transition(VIP, new_version=1)
        with pytest.raises(RuntimeError):
            table.begin_transition(VIP, new_version=2)

    def test_end_without_begin_rejected(self, table):
        with pytest.raises(RuntimeError):
            table.end_transition(VIP)


class TestAccounting:
    def test_sram_scales_with_vips(self):
        # The switch prices its VIPTable as one vip_entry per VIP.
        t = VipTable()
        for i in range(100):
            t.install(VirtualIP.parse(f"20.0.0.{i}:80"), version=0)
        v4 = vip_entry(ipv6=False).bytes_for(len(t))
        assert v4 == 100 * 14  # 74-bit entries, one per 112-bit word
        assert vip_entry(ipv6=True).bytes_for(len(t)) > v4
