"""Tests for the versioned DIP-pool table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.hashing import HashUnit
from repro.core.dip_pool_table import DipPool, DipPoolTable, VersionsExhausted
from repro.netsim.packet import DirectIP, VirtualIP

VIP = VirtualIP.parse("20.0.0.1:80")


def dip(i: int) -> DirectIP:
    return DirectIP.parse(f"10.0.0.{i}:8080")


@pytest.fixture
def table() -> DipPoolTable:
    return DipPoolTable(version_bits=6)


class TestDipPool:
    def test_selection_is_stable(self):
        pool = DipPool((dip(1), dip(2), dip(3)))
        unit = HashUnit(seed=1)
        key = b"connection-key"
        assert pool.select(key, unit) == pool.select(key, unit)

    def test_substitution_preserves_other_slots(self):
        pool = DipPool((dip(1), dip(2), dip(3)))
        patched = pool.substituted(1, dip(9))
        unit = HashUnit(seed=1)
        for key in (b"a", b"b", b"c", b"d", b"e"):
            before = pool.select(key, unit)
            after = patched.select(key, unit)
            if before != dip(2):
                assert after == before  # untouched slots keep their flows
            else:
                assert after == dip(9)

    def test_without_and_with_added(self):
        pool = DipPool((dip(1), dip(2)))
        assert dip(1) not in pool.without(dip(1))
        assert dip(3) in pool.with_added(dip(3))
        with pytest.raises(KeyError):
            pool.without(dip(9))
        with pytest.raises(ValueError):
            pool.with_added(dip(1))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            DipPool(())

    def test_substituted_bounds(self):
        pool = DipPool((dip(1),))
        with pytest.raises(IndexError):
            pool.substituted(5, dip(2))


class TestVipLifecycle:
    def test_add_vip_returns_first_version(self, table):
        version = table.add_vip(VIP, [dip(1), dip(2)])
        assert table.current_version(VIP) == version
        assert len(table.pool(VIP, version)) == 2

    def test_duplicate_vip_rejected(self, table):
        table.add_vip(VIP, [dip(1)])
        with pytest.raises(ValueError):
            table.add_vip(VIP, [dip(2)])

    def test_unknown_vip_raises(self, table):
        with pytest.raises(KeyError):
            table.current_version(VIP)
        # acquire/release read the VIP record inline, with the same error.
        for call in (table.acquire, table.release):
            with pytest.raises(KeyError, match="unknown VIP"):
                call(VIP, 0)


class TestVersioning:
    def test_remove_creates_new_version(self, table):
        v1 = table.add_vip(VIP, [dip(1), dip(2)])
        v2 = table.remove_dip(VIP, dip(2))
        assert v2 != v1
        assert table.current_version(VIP) == v2
        assert dip(2) not in table.pool(VIP, v2)
        # The old version is immutable and intact.
        assert dip(2) in table.pool(VIP, v1)

    def test_old_version_selection_consistent_across_update(self, table):
        v1 = table.add_vip(VIP, [dip(1), dip(2), dip(3)])
        key = b"some-conn"
        before = table.select(VIP, v1, key)
        table.remove_dip(VIP, dip(2))
        assert table.select(VIP, v1, key) == before  # pinned conns unaffected

    def test_reuse_substitutes_into_old_version(self, table):
        v1 = table.add_vip(VIP, [dip(1), dip(2)])
        table.acquire(VIP, v1)  # keep v1 alive
        v2 = table.remove_dip(VIP, dip(2))
        table.acquire(VIP, v2)
        v3 = table.add_dip(VIP, dip(9))
        assert v3 == v1  # the old version number is reused
        assert dip(9) in table.pool(VIP, v1)
        assert dip(2) not in table.pool(VIP, v1)

    def test_reuse_skips_stale_vacancies(self, table):
        v1 = table.add_vip(VIP, [dip(1), dip(2), dip(3)])
        table.acquire(VIP, v1)
        v2 = table.remove_dip(VIP, dip(2))
        table.acquire(VIP, v2)
        v3 = table.remove_dip(VIP, dip(3))
        table.acquire(VIP, v3)
        # Add D: the (v2, slot of dip3) vacancy is fresh -> reused.
        v4 = table.add_dip(VIP, dip(8))
        assert v4 == v2
        assert set(table.pool(VIP, v4).slots) == {dip(1), dip(8)}
        # Add E: the remaining (v1, slot of dip2) vacancy is stale (v1
        # still contains dip3, which was removed later) -> fresh version.
        v5 = table.add_dip(VIP, dip(9))
        assert v5 not in (v1, v2)
        assert set(table.pool(VIP, v5).slots) == {dip(1), dip(8), dip(9)}

    def test_no_reuse_mode_always_fresh(self):
        table = DipPoolTable(version_bits=6, version_reuse=False)
        v1 = table.add_vip(VIP, [dip(1), dip(2)])
        table.acquire(VIP, v1)
        v2 = table.remove_dip(VIP, dip(2))
        table.acquire(VIP, v2)
        v3 = table.add_dip(VIP, dip(9))
        assert len({v1, v2, v3}) == 3
        assert table.versions_created(VIP) == 3


class TestRefcountsAndReclaim:
    def test_released_versions_recycle(self, table):
        v1 = table.add_vip(VIP, [dip(1), dip(2)])
        table.acquire(VIP, v1)
        v2 = table.remove_dip(VIP, dip(2))
        assert v1 in table.live_versions(VIP)
        table.release(VIP, v1)
        # v1 had no more users and is not current: reclaimed.
        assert v1 not in table.live_versions(VIP)

    def test_current_version_never_reclaimed(self, table):
        v1 = table.add_vip(VIP, [dip(1)])
        table.acquire(VIP, v1)
        table.release(VIP, v1)
        assert v1 in table.live_versions(VIP)

    def test_release_underflow_raises(self, table):
        v1 = table.add_vip(VIP, [dip(1)])
        with pytest.raises(ValueError):
            table.release(VIP, v1)

    def test_acquire_unknown_version_raises(self, table):
        table.add_vip(VIP, [dip(1)])
        with pytest.raises(KeyError):
            table.acquire(VIP, 63)

    def test_versions_exhausted(self):
        table = DipPoolTable(version_bits=2, version_reuse=False)  # 4 versions
        table.add_vip(VIP, [dip(i) for i in range(1, 8)])
        table.acquire(VIP, table.current_version(VIP))
        with pytest.raises(VersionsExhausted):
            for i in range(1, 8):
                table.remove_dip(VIP, dip(i))
                table.acquire(VIP, table.current_version(VIP))

    def test_exhaustion_avoided_by_reclaim(self):
        table = DipPoolTable(version_bits=2, version_reuse=False)
        table.add_vip(VIP, [dip(i) for i in range(1, 8)])
        # No one holds old versions: numbers recycle through the ring.
        for i in range(1, 7):
            table.remove_dip(VIP, dip(i))
        assert len(table.live_versions(VIP)) <= 4


class TestAccounting:
    def test_sram_bytes_scales_with_pools(self, table):
        table.add_vip(VIP, [dip(i) for i in range(1, 9)])
        base = table.sram_bytes(ipv6=False)
        table.acquire(VIP, table.current_version(VIP))
        table.remove_dip(VIP, dip(1))
        assert table.sram_bytes(ipv6=False) > base
        assert table.sram_bytes(ipv6=True) > table.sram_bytes(ipv6=False)

    def test_refcount_query(self, table):
        v1 = table.add_vip(VIP, [dip(1)])
        assert table.refcount(VIP, v1) == 0
        table.acquire(VIP, v1)
        assert table.refcount(VIP, v1) == 1


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_membership_tracks_update_stream(self, ops):
        """Applying any remove/re-add stream keeps the current pool's
        membership equal to a plain set model."""
        table = DipPoolTable(version_bits=16)
        initial = [dip(i) for i in range(1, 9)]
        table.add_vip(VIP, initial)
        members = set(initial)
        spares = [dip(i) for i in range(100, 140)]
        removed: list = []
        for op in ops:
            current = table.current_version(VIP)
            table.acquire(VIP, current)
            if op % 2 == 0 and len(members) > 1:
                victim = sorted(members, key=str)[op % len(members)]
                table.remove_dip(VIP, victim)
                members.discard(victim)
                removed.append(victim)
            else:
                new = removed.pop() if removed else spares.pop()
                table.add_dip(VIP, new)
                members.add(new)
            pool = table.pool(VIP, table.current_version(VIP))
            assert set(pool.slots) == members
