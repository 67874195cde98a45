"""Ablations of the design choices DESIGN.md §5 calls out.

These are not paper figures; they show how SilkRoad's design parameters
(cuckoo geometry, switch-CPU insertion rate, Bloom sizing, version width)
move the property each one buys, the way an adopter would check before
deployment.  Digest width and per-stage digests are held beside their
experiments (test_experiments.py, test_multi_digest.py); TransitTable size
against filter timeout is Figure 18 (test_flow_figs.py).
"""

from __future__ import annotations

import random

import pytest

from repro.asicsim.cuckoo import CuckooTable, TableFull
from repro.asicsim.registers import BloomFilter
from repro.core.dip_pool_table import DipPoolTable, VersionsExhausted
from repro.experiments import fig16
from repro.netsim.cluster import make_cluster


def _fill(table: CuckooTable, keys) -> int:
    inserted = 0
    for i, key in enumerate(keys):
        try:
            table.insert(key, i % 64)
            inserted += 1
        except TableFull:
            pass
    return inserted


def _keys(n: int, seed: int = 0):
    rnd = random.Random(seed)
    return [bytes(rnd.getrandbits(8) for _ in range(13)) for _ in range(n)]


def _occupancy(ways: int, stages: int, seed: int) -> float:
    """Fraction of a 4096-entry table one uncapped fill reaches
    (``fast_fail_load=1.0``: the search never gives up early)."""
    table = CuckooTable(
        buckets_per_stage=4096 // (ways * stages),
        ways=ways,
        stages=stages,
        fast_fail_load=1.0,
    )
    return _fill(table, _keys(table.capacity, seed=seed)) / table.capacity


@pytest.mark.slow
class TestCuckooGeometry:
    def test_occupancy_grows_with_ways(self):
        """Two stages expose the geometry effect; with four the BFS masks
        it almost entirely.  (Holds at key seeds ``ways`` and ``ways + 10``.)"""
        occupancy = {ways: _occupancy(ways, 2, seed=ways) for ways in (1, 2, 4)}
        assert occupancy[1] < occupancy[4]
        assert occupancy[2] <= occupancy[4]
        assert occupancy[4] > 0.9  # the packing SilkRoad's sizing assumes

    def test_occupancy_grows_with_stages(self):
        """More stages, more candidate buckets, better packing.  (Holds at
        key seeds ``stages`` and ``stages + 10``.)"""
        occupancy = {stages: _occupancy(4, stages, seed=stages) for stages in (1, 2, 4)}
        assert occupancy[1] <= occupancy[2] <= occupancy[4]


@pytest.mark.slow
class TestInsertionRate:
    def test_slower_cpu_breaks_more_without_transit_table(self):
        """Without the TransitTable, a slower switch CPU means a longer
        pending window and more broken connections.  (Holds at seeds 7
        and 8.)"""
        violations = {}
        for rate in (1_000.0, 50_000.0):
            (point,) = fig16.run(
                rates=(50.0,),
                scale=0.3,
                seed=7,
                horizon_s=180.0,
                systems={
                    "no-tt": fig16.default_systems(
                        insertion_rate_per_s=rate, learning_timeout_s=5e-3
                    )["silkroad-no-transittable"],
                },
            )
            violations[rate] = point.violations
        assert violations[1_000.0] >= violations[50_000.0]
        assert violations[1_000.0] > 0


class TestBloomSizing:
    def test_false_positive_rate_collapses_with_size(self):
        """The 256-byte choice: with 50 marks an 8-byte filter is saturated
        and 256 bytes is comfortably safe."""
        rates = {
            size: BloomFilter(size).expected_false_positive_rate(50)
            for size in (8, 32, 256, 1024)
        }
        assert rates[8] > rates[32] > rates[256] > rates[1024]
        assert rates[8] > 0.5
        assert rates[256] < 1e-4


class TestVersionWidth:
    def test_narrow_versions_exhaust_under_held_connections(self):
        """Each removal while an old version is held needs a fresh version:
        2 bits run out, 6 bits ride out 20 of them without reuse."""
        survived = {}
        for bits in (2, 6):
            cluster = make_cluster(num_vips=1, dips_per_vip=32)
            vip, dips = cluster.vips[0], cluster.services[0].dips
            table = DipPoolTable(version_bits=bits, version_reuse=False)
            table.add_vip(vip, dips)
            survived[bits] = 0
            try:
                for i in range(20):
                    table.acquire(vip, table.current_version(vip))
                    table.remove_dip(vip, dips[i])
                    survived[bits] += 1
            except VersionsExhausted:
                pass
        assert survived[2] < survived[6]
        assert survived[6] == 20

