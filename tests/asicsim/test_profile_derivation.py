"""``CuckooTable.profile_many`` against the scalar per-key derivation.

A window's profiles come out of one kernel pass (every stage's index and
digest row at once, packed in numpy when the triple fits 64 bits); a key's
profile on the scalar path comes from its own seeded rounds.  The two must
agree bit for bit on every geometry, or a primed arrival would probe other
buckets than an unprimed one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.cuckoo import PROFILE_VECTOR_MIN, CuckooTable
from repro.core import SilkRoadConfig
from repro.core.conn_table import ConnTable

GEOMETRIES = {
    # The switch default: 1 M connections over 4 stages x 4 ways.
    "default": lambda: ConnTable(SilkRoadConfig())._table,
    # §7's graded per-stage digests, wide to narrow.
    "graded": lambda: CuckooTable(
        buckets_per_stage=5000, digest_bits=[24, 16, 12, 8]
    ),
    # A 64-bit digest: the packed triple overflows uint64, so the batch
    # packs on Python ints.
    "digest64": lambda: CuckooTable(buckets_per_stage=700, digest_bits=[64, 16, 8, 4]),
    "one_stage": lambda: CuckooTable(buckets_per_stage=300, stages=1),
    "one_bucket": lambda: CuckooTable(buckets_per_stage=1, ways=2, digest_bits=3),
}

bases_st = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=48)


def reference(table: CuckooTable, base: int):
    """The candidate triples of ``base`` from the hash units one by one."""
    buckets = table.buckets_per_stage
    shift = (table.stages * buckets).bit_length()
    return tuple(
        table._digest_units[s].digest_base(base, table.digest_bits_per_stage[s]) << shift
        | (s * buckets + table._index_units[s].index_base(base, buckets))
        for s in range(table.stages)
    )


def scalar(table: CuckooTable, bases):
    """Each base through the scalar ``_profile`` path (a cache miss each)."""
    return [table._profile(b"k%d" % i, base) for i, base in enumerate(bases)]


@pytest.fixture(params=sorted(GEOMETRIES), scope="module")
def geometry(request):
    return request.param


@settings(max_examples=60, deadline=None)
@given(bases=bases_st)
def test_profile_many_equals_scalar_derivation(geometry, bases):
    table = GEOMETRIES[geometry]()
    batch = table.profile_many(bases)
    assert batch == [reference(table, base) for base in bases]
    assert batch == scalar(GEOMETRIES[geometry](), bases)
    assert all(type(v) is int for profile in batch for v in profile)


@pytest.mark.parametrize(
    "size",
    [0, 1, PROFILE_VECTOR_MIN - 1, PROFILE_VECTOR_MIN, PROFILE_VECTOR_MIN + 1, 256],
)
def test_batch_sizes_around_the_vector_threshold(geometry, size):
    from repro.asicsim.hashing import mix64

    table = GEOMETRIES[geometry]()
    bases = [mix64(i, size) for i in range(size)]
    if size:
        bases[0] = 0
        bases[-1] = 2**64 - 1
    assert table.profile_many(bases) == [reference(table, base) for base in bases]
