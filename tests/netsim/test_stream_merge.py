"""The batched driver's pending-stream merge against the per-item insert
loop it replaced: same items, same order, equal-time ties included."""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import NamedTuple

import pytest

from repro.netsim.batchsim import _Stream


class Item(NamedTuple):
    t: float
    tag: int


def times_of(items):
    return [item.t for item in items]


def reference_merge(items, times, new):
    """The old merge: place each sorted new item with bisect + insert,
    after every pending item at its time."""
    new = sorted(new, key=lambda item: item.t)
    i = 0
    for item in new:
        i = bisect_right(times, item.t, i)
        times.insert(i, item.t)
        items.insert(i, item)
        i += 1


@pytest.mark.parametrize("seed", range(40))
def test_merge_matches_the_insert_loop(seed):
    rng = random.Random(seed)
    # Few distinct times, so equal-time ties between pending and new items
    # (and among the new items themselves) are the common case.
    grid = rng.choice([3, 10, 50])
    stream = _Stream(times_of)
    ref_items, ref_times = [], []
    tag = 0
    for _feed in range(rng.randrange(1, 8)):
        base = rng.choice([0, rng.randrange(grid)])
        new = []
        for _ in range(rng.randrange(0, 40)):
            new.append(Item(float(base + rng.randrange(grid)), tag))
            tag += 1
        stream.merge(new)
        reference_merge(ref_items, ref_times, new)
        assert stream.items == ref_items
        assert stream.times == ref_times
        if stream.items and rng.random() < 0.3:
            n = rng.randrange(len(stream.items) + 1)
            assert stream.cut(n) == ref_items[:n]
            del ref_items[:n], ref_times[:n]


def test_equal_times_keep_pending_before_new():
    stream = _Stream(times_of)
    stream.merge([Item(1.0, 0), Item(2.0, 1), Item(2.0, 2), Item(3.0, 3)])
    stream.merge([Item(2.0, 4), Item(0.5, 5), Item(2.0, 6)])
    assert [item.tag for item in stream.items] == [5, 0, 1, 2, 4, 6, 3]
    assert stream.times == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0]
