"""Stateful property testing of the TransitTable.

Hypothesis drives arbitrary interleavings of update start / mark / check /
out-of-order finish against a reference that rebuilds the whole register
after every step: the bits set by the in-flight updates' keys under the
filter's own hash family.  The counting filter evicts a finished
update's marks incrementally; every answer, the population, the fill ratio
and the counters must match the rebuild.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.asicsim.hashing import base_hash, hash_family
from repro.asicsim.registers import BLOOM_SEED
from repro.core.transit_table import TransitTable

UNITS = hash_family(4, BLOOM_SEED)


class TransitMachine(RuleBasedStateMachine):
    size_bytes = 8

    def __init__(self) -> None:
        super().__init__()
        self.table = TransitTable(size_bytes=self.size_bytes)
        self.num_bits = self.size_bytes * 8
        #: update id -> keys it marked, for every update still in flight.
        self.inflight: dict = {}
        self.clears = self.rebuilds = self.evicted = self.false_positives = 0

    keys = Bundle("keys")

    def _cells(self, key: bytes) -> set:
        base = base_hash(key)
        return {unit.index_base(base, self.num_bits) for unit in UNITS}

    def _rebuilt(self) -> tuple:
        """(marked keys, set bits) of a register rebuilt from the in-flight keys."""
        marked = set().union(*self.inflight.values())
        bits = set()
        for key in marked:
            bits |= self._cells(key)
        return marked, bits

    def _pick(self, index: int) -> int:
        ids = sorted(self.inflight)
        return ids[index % len(ids)]

    @rule(target=keys, raw=st.binary(min_size=1, max_size=6))
    def make_key(self, raw):
        return raw

    @rule()
    def start(self):
        self.inflight[self.table.update_started()] = set()

    @precondition(lambda self: self.inflight)
    @rule(key=keys, index=st.integers(min_value=0), cached=st.booleans())
    def mark(self, key, index, cached):
        update_id = self._pick(index)
        self.table.mark(key, base_hash(key) if cached else None, update_id)
        self.inflight[update_id].add(key)

    @precondition(lambda self: self.inflight)
    @rule(
        prefix=st.binary(max_size=2),
        count=st.integers(min_value=1, max_value=24),
        index=st.integers(min_value=0),
    )
    def mark_burst(self, prefix, count, index):
        """Enough marks to saturate 8 B and to take the batched eviction."""
        update_id = self._pick(index)
        for i in range(count):
            key = prefix + bytes([i])
            self.table.mark(key, None, update_id)
            self.inflight[update_id].add(key)

    @rule(key=st.one_of(keys, st.binary(min_size=1, max_size=6)), cached=st.booleans())
    def check(self, key, cached):
        query = self.table.check(key, base_hash(key) if cached else None)
        marked, bits = self._rebuilt()
        positive = self._cells(key) <= bits
        false_positive = positive and key not in marked
        assert (query.positive, query.false_positive) == (positive, false_positive)
        self.false_positives += false_positive

    @precondition(lambda self: self.inflight)
    @rule(index=st.integers(min_value=0))
    def finish(self, index):
        update_id = self._pick(index)
        self.table.update_finished(update_id)
        finished = self.inflight.pop(update_id)
        if not self.inflight:
            self.clears += 1
        else:
            self.rebuilds += 1
            self.evicted += len(finished - self._rebuilt()[0])

    @invariant()
    def register_matches_a_rebuild(self):
        marked, bits = self._rebuilt()
        assert self.table.population == len(marked)
        assert self.table.fill_ratio == len(bits) / self.num_bits
        assert self.table.nonzero_cells() == sorted(bits)
        assert self.table.active_updates == len(self.inflight)

    @invariant()
    def counters_match(self):
        assert self.table.clears == self.clears
        assert self.table.rebuilds == self.rebuilds
        assert self.table.evicted_marks == self.evicted
        assert self.table.false_positives == self.false_positives


class PaperSizeMachine(TransitMachine):
    """The paper's 256-byte filter: false positives are rare, so the
    machine mostly exercises exact eviction of marks that share no cell."""

    size_bytes = 256


TestTransitStateful = TransitMachine.TestCase
TestPaperSizeStateful = PaperSizeMachine.TestCase
TestTransitStateful.settings = TestPaperSizeStateful.settings = settings(
    max_examples=50, stateful_step_count=40, deadline=None
)
