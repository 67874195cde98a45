"""Stateful property testing of the cuckoo table.

Hypothesis drives arbitrary interleavings of insert / delete / update /
relocate / lookup against a plain-dict model; after every step the table
must agree with the model and keep its structural invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.asicsim.cuckoo import CuckooTable, DuplicateKey, TableFull


class CuckooMachine(RuleBasedStateMachine):
    geometry = dict(buckets_per_stage=16, ways=2, stages=3, digest_bits=16)

    def __init__(self) -> None:
        super().__init__()
        self.table = CuckooTable(**self.geometry)
        self.model: dict = {}

    keys = Bundle("keys")

    @rule(target=keys, raw=st.binary(min_size=4, max_size=12))
    def make_key(self, raw):
        return raw

    @rule(key=keys, value=st.integers(min_value=0, max_value=63))
    def insert(self, key, value):
        if key in self.model:
            with pytest.raises(DuplicateKey):
                self.table.insert(key, value)
            return
        try:
            self.table.insert(key, value)
            self.model[key] = value
        except TableFull:
            pass  # legal under load; key stays absent

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            self.table.delete(key)
            del self.model[key]
        else:
            with pytest.raises(KeyError):
                self.table.delete(key)

    @rule(key=keys, value=st.integers(min_value=0, max_value=63))
    def update(self, key, value):
        if key in self.model:
            self.table.update(key, value)
            self.model[key] = value
        else:
            with pytest.raises(KeyError):
                self.table.update(key, value)

    @rule(key=keys)
    def relocate(self, key):
        if key in self.model:
            self.table.relocate(key)  # success optional; state must hold

    @rule(key=keys)
    def lookup(self, key):
        if key in self.model:
            result = self.table.lookup(key)
            assert result.hit
            assert result.value == self.model[key]
            assert not result.false_positive
        else:
            assert self.table.get_exact(key) is None

    @invariant()
    def sizes_agree(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def structure_consistent(self):
        self.table.check_invariants()


class SharedTripleMachine(CuckooMachine):
    """The same rules where residents share candidate triples all the time:
    2-bit digests over 4 buckets, so a candidate's owner goes key -> set ->
    key and twins relocate within a handful of steps (16-bit digests almost
    never get there).  Two ways leave the BFS moving entries among them
    (see ``narrow_table`` in test_cuckoo_column.py)."""

    geometry = dict(buckets_per_stage=4, ways=2, stages=4, digest_bits=2)


TestCuckooStateful = CuckooMachine.TestCase
TestSharedTripleStateful = SharedTripleMachine.TestCase
TestCuckooStateful.settings = TestSharedTripleStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
