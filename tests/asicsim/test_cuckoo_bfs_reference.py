"""The free-first cuckoo BFS against the legality-first search it replaced.

``CuckooTable._bfs_paths`` judges a node's moves into free buckets before
its moves into full ones, so a search that ends at its first free
destination never pays the legality checks of the full ones.  The claim is
that this changes nothing a caller can see: the paths come out, and the
queue fills, in the order of the search that judged every move as it met
it.  ``LegalityFirst`` keeps that search (a test-local copy of it), and
each churn below drives one table of each kind through the same seeded
operations near full load, comparing every insert's ``Location`` and
``moves``, every ``TableFull`` and the whole ``entries()`` walk after every
operation.  The 2-way, 2-bit-digest geometry is the one where an applied
path can fail (a victim moved earlier lands where it shadows), so the
search resumes there; the churn checks that it did.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, List, Optional, Set, Tuple

import pytest

from repro.asicsim.cuckoo import MAX_BFS_NODES, CuckooTable, TableFull


class LegalityFirst(CuckooTable):
    """A table whose BFS judges each move's legality before looking at
    its destination bucket: the search as it was before free-first, its
    cells read from the packed ``_cands`` column instead of ``_cells``."""

    def _bfs_paths(self, row: int) -> Iterator[list]:
        frontier: List[Tuple[int, int, int, Optional[int]]] = []
        seen: Set[int] = set()
        queue: deque = deque()
        cands, legal, stages = self._cands, self._placement_legal, self.stages
        mask = self._cell_mask
        for stage in range(stages):
            if not legal(row, stage):
                continue
            cell = cands[row * stages + stage] & mask
            frontier.append((stage, cell, -1, None))
            queue.append(len(frontier) - 1)
            seen.add(cell)

        buckets, ways = self._buckets, self.ways
        bits, row_mask = self._row_bits, self._row_mask
        nodes_explored = 0
        while queue and nodes_explored < MAX_BFS_NODES:
            idx = queue.popleft()
            stage, cell, _parent, _way = frontier[idx]
            nodes_explored += 1
            word = buckets[cell]
            for way in range(ways):
                other = word >> ways + way * bits & row_mask
                for dest_stage in range(stages):
                    if dest_stage == stage:
                        continue
                    dest_cell = cands[other * stages + dest_stage] & mask
                    if dest_cell in seen:
                        continue
                    if not legal(other, dest_stage):
                        continue
                    frontier.append((dest_stage, dest_cell, idx, way))
                    seen.add(dest_cell)
                    if self._free_way(dest_cell) is not None:
                        yield self._reconstruct_path(frontier, len(frontier) - 1)
                    else:
                        queue.append(len(frontier) - 1)


GEOMETRIES = {
    # Four 4-way stages at 16-bit digests, as the ConnTable is built.
    "4way_16bit": dict(buckets_per_stage=32, ways=4, stages=4, digest_bits=16),
    # Residents share candidate triples constantly: applied paths fail and
    # the search resumes, twins relocate, and most inserts end TableFull.
    "2way_2bit": dict(buckets_per_stage=4, ways=2, stages=4, digest_bits=2),
    # §7's graded per-stage digests, wide to narrow.
    "graded": dict(buckets_per_stage=24, ways=4, stages=4, digest_bits=[16, 8, 4, 2]),
}


def _outcome(table: CuckooTable, key: bytes, value: int):
    try:
        return table.insert(key, value)
    except TableFull:
        return "TableFull"


def side_by_side(geometry: dict, seed: int, load: float, steps: int):
    """Fill a free-first and a legality-first table together to ``load``,
    then hold them there for ``steps`` operations of churn; returns
    ``(BFS inserts, TableFull count, resumed searches)``."""
    new = CuckooTable(fast_fail_load=1.0, **geometry)
    ref = LegalityFirst(fast_fail_load=1.0, **geometry)
    resumed = []
    apply_path = new._apply_move_path

    def counting_apply(row, path):
        applied = apply_path(row, path)
        if applied is None:
            resumed.append(path)
        return applied

    new._apply_move_path = counting_apply
    rng = random.Random(seed)
    target = int(load * new.capacity)
    resident: list = []
    fresh = bfs_inserts = full = 0
    held = False  # deletes and relocations start once the table is at load
    step = 0
    while step < steps:
        op = rng.random()
        held = held or len(resident) >= target
        step += held
        if held and (op < 0.2 or len(resident) >= target):
            key = resident.pop(rng.randrange(len(resident)))
            new.delete(key)
            ref.delete(key)
        elif held and op < 0.25:
            key = resident[rng.randrange(len(resident))]
            assert new.relocate(key) == ref.relocate(key), (step, key)
        else:
            key = b"conn-%07d" % fresh
            fresh += 1
            value = rng.randrange(64)
            got, want = _outcome(new, key, value), _outcome(ref, key, value)
            assert got == want, (step, key, got, want)
            if got == "TableFull":
                full += 1
            else:
                resident.append(key)
                bfs_inserts += got.moves > 0
        assert list(new.entries()) == list(ref.entries()), step
    new.check_invariants()
    return bfs_inserts, full, len(resumed)


CASES = [
    (name, load) for name in ("4way_16bit", "graded") for load in (0.97, 0.98, 0.99)
] + [("2way_2bit", 0.98)]  # legality caps it far below any of those loads


@pytest.mark.parametrize("name, load", CASES, ids=[f"{n}-{l}" for n, l in CASES])
def test_free_first_search_equals_the_legality_first_one(name, load):
    totals = [0, 0, 0]
    for seed in range(2):
        for i, n in enumerate(side_by_side(GEOMETRIES[name], seed, load, steps=400)):
            totals[i] += n
    bfs_inserts, full, resumed = totals
    assert bfs_inserts > 0, totals  # the churns reached the search
    if name == "2way_2bit":
        assert full > 0 and resumed > 0, totals
