"""Tests for Maglev consistent hashing."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.maglev import MaglevTable, _is_prime
from repro.netsim.packet import DirectIP


def backends(n: int) -> list:
    return [DirectIP.parse(f"10.0.0.{i}:80") for i in range(1, n + 1)]


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 251, 65537):
            assert _is_prime(p)
        for c in (0, 1, 4, 100, 65536):
            assert not _is_prime(c)


class TestPopulation:
    def test_table_fully_populated(self):
        table = MaglevTable(backends(5))
        assert len(table.entries) == table.table_size
        assert all(e is not None for e in table.entries)

    def test_every_backend_represented(self):
        table = MaglevTable(backends(5))
        assert set(table.entries) == set(backends(5))

    def test_load_evenness(self):
        # Maglev's design goal: near-perfectly even entry ownership.
        table = MaglevTable(backends(7), table_size=251)
        spread = Counter(table.entries)
        assert max(spread.values()) - min(spread.values()) <= 0.2 * (251 / 7) + 2

    def test_single_backend(self):
        table = MaglevTable(backends(1))
        assert set(table.entries) == set(backends(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            MaglevTable([])
        with pytest.raises(ValueError):
            MaglevTable(backends(3), table_size=250)  # not prime
        with pytest.raises(ValueError):
            MaglevTable(backends(10), table_size=7)


class TestLookup:
    def test_deterministic(self):
        table = MaglevTable(backends(5))
        assert table.lookup(b"conn") == table.lookup(b"conn")

    def test_spreads_keys(self):
        table = MaglevTable(backends(5))
        hits = {table.lookup(f"conn-{i}".encode()) for i in range(300)}
        assert len(hits) == 5


class TestMinimalDisruption:
    def test_removal_only_remaps_removed_backends_keys(self):
        table = MaglevTable(backends(8), table_size=251)
        keys = [f"conn-{i}".encode() for i in range(500)]
        before = {k: table.lookup(k) for k in keys}
        victim = backends(8)[3]
        table.rebuild([b for b in backends(8) if b != victim])
        moved_without_cause = 0
        for k in keys:
            after = table.lookup(k)
            if before[k] != victim and after != before[k]:
                moved_without_cause += 1
        # Maglev allows a small amount of extra churn; the bulk must stay.
        assert moved_without_cause <= 0.12 * len(keys)

    def test_rebuild_reports_disruption(self):
        table = MaglevTable(backends(8), table_size=251)
        changed = table.rebuild(backends(7))
        assert 0 < changed < 251

    def test_identical_rebuild_changes_nothing(self):
        table = MaglevTable(backends(4))
        assert table.rebuild(backends(4)) == 0

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_addition_steals_about_one_nth(self, n):
        table = MaglevTable(backends(n), table_size=251)
        new = DirectIP.parse("10.9.9.9:80")
        changed = table.rebuild(backends(n) + [new])
        share = 251 / (n + 1)
        assert changed <= 3.0 * share  # bounded churn
