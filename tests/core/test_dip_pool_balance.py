"""Load-balance and stability properties of DIP-pool selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.hashing import HashUnit
from repro.core.dip_pool_table import SELECT_SEED, DipPool
from repro.netsim.packet import DirectIP


def dips(n):
    return tuple(DirectIP.parse(f"10.0.0.{i}:80") for i in range(1, n + 1))


UNIT = HashUnit(seed=SELECT_SEED)


class TestSelectionBalance:
    @pytest.mark.parametrize("pool_size", [2, 5, 8, 16])
    def test_roughly_even_spread(self, pool_size):
        pool = DipPool(dips(pool_size))
        counts = {d: 0 for d in pool.slots}
        n = 6000
        for i in range(n):
            counts[pool.select(f"conn-{i}".encode(), UNIT)] += 1
        expected = n / pool_size
        for dip, count in counts.items():
            assert 0.75 * expected < count < 1.25 * expected, dip

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_selection_deterministic(self, conn_id):
        pool = DipPool(dips(7))
        key = conn_id.to_bytes(8, "big")
        assert pool.select(key, UNIT) == pool.select(key, UNIT)

    def test_substitution_moves_only_one_slots_flows(self):
        pool = DipPool(dips(8))
        new = DirectIP.parse("10.9.9.9:80")
        patched = pool.substituted(3, new)
        moved = 0
        n = 4000
        for i in range(n):
            key = f"conn-{i}".encode()
            before = pool.select(key, UNIT)
            after = patched.select(key, UNIT)
            if before != after:
                moved += 1
                assert before == pool.slots[3]
                assert after == new
        # Exactly the substituted slot's share of flows moved (~1/8).
        assert 0.08 * n < moved < 0.18 * n

    def test_removal_disrupts_more_than_substitution(self):
        # The motivation for version reuse: removal changes the modulus
        # (most flows re-hash); substitution moves only one slot's flows.
        pool = DipPool(dips(8))
        removed = pool.without(pool.slots[3])
        moved = sum(
            1
            for i in range(2000)
            if pool.select(f"c{i}".encode(), UNIT)
            != removed.select(f"c{i}".encode(), UNIT)
        )
        assert moved > 0.5 * 2000
