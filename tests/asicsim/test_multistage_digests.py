"""Tests for the per-stage digest-width optimization (§7)."""

from __future__ import annotations

import random

import pytest

from repro.asicsim.cuckoo import CuckooTable, TableFull


def make_keys(n: int, seed: int = 0):
    rnd = random.Random(seed)
    return [bytes(rnd.getrandbits(8) for _ in range(13)) for _ in range(n)]


class TestPerStageDigests:
    def test_uniform_shorthand(self):
        table = CuckooTable(buckets_per_stage=16, digest_bits=16)
        assert table.digest_bits_per_stage == [16, 16, 16, 16]

    def test_per_stage_widths(self):
        table = CuckooTable(buckets_per_stage=16, digest_bits=[24, 16, 16, 12])
        assert table.digest_bits_per_stage == [24, 16, 16, 12]
        assert table.digest_bits == 24  # conservative SRAM accounting

    def test_length_validated(self):
        with pytest.raises(ValueError):
            CuckooTable(buckets_per_stage=16, stages=4, digest_bits=[16, 16])
        with pytest.raises(ValueError):
            CuckooTable(buckets_per_stage=16, digest_bits=[0, 16, 16, 16])

    def test_operations_work_across_stages(self):
        table = CuckooTable(buckets_per_stage=64, digest_bits=[24, 16, 12, 8])
        keys = make_keys(600, seed=1)
        for i, key in enumerate(keys):
            try:
                table.insert(key, i % 64)
            except TableFull:
                pass
        table.check_invariants()
        for key in keys[:100]:
            if key in table:
                assert table.lookup(key).hit

    def test_wider_early_stage_reduces_false_positives(self):
        """The §7 intuition: most entries sit in early stages, so widening
        those digests cuts the aggregate FP rate at equal fill."""

        def fp_rate(digest_bits) -> float:
            table = CuckooTable(
                buckets_per_stage=256, stages=2, ways=4, digest_bits=digest_bits
            )
            for i, key in enumerate(make_keys(1200, seed=3)):
                try:
                    table.insert(key, 0)
                except TableFull:
                    pass
            probes = make_keys(30_000, seed=4)
            lookups, fps = table.total_lookups, table.false_positive_lookups
            for key in probes:
                if key not in table:
                    table.lookup(key)
            return (table.false_positive_lookups - fps) / max(
                table.total_lookups - lookups, 1
            )

        narrow = fp_rate([8, 8])
        mixed = fp_rate([12, 8])
        assert mixed < narrow
