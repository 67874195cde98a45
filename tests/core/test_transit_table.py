"""Tests for the TransitTable wrapper."""

from __future__ import annotations

import pytest

from repro.core.transit_table import TransitTable


class TestLifecycle:
    def test_mark_and_check(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        tt.mark(b"pending-conn", None, a)
        assert tt.check(b"pending-conn").positive
        assert not tt.check(b"other").positive

    def test_clear_on_last_update_finish(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        tt.mark(b"x", None, a)
        tt.update_finished(a)
        assert not tt.check(b"x").positive
        assert tt.clears == 1

    def test_shared_across_concurrent_updates(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()  # VIP A
        b = tt.update_started()  # VIP B
        tt.mark(b"conn-of-b", None, b)
        tt.update_finished(a)  # A finishes; B still needs the filter
        assert tt.check(b"conn-of-b").positive
        assert tt.clears == 0
        tt.update_finished(b)
        assert tt.clears == 1
        assert not tt.check(b"conn-of-b").positive

    def test_unbalanced_finish_raises(self):
        tt = TransitTable()
        with pytest.raises(KeyError):
            tt.update_finished(1)
        a = tt.update_started()
        tt.update_finished(a)
        with pytest.raises(KeyError):
            tt.update_finished(a)

    def test_mark_needs_an_update_in_flight(self):
        tt = TransitTable()
        with pytest.raises(KeyError):
            tt.mark(b"orphan", None, 1)
        a = tt.update_started()
        tt.update_finished(a)
        with pytest.raises(KeyError):
            tt.mark(b"late", None, a)

    def test_active_updates_tracked(self):
        tt = TransitTable()
        assert tt.active_updates == 0
        tt.update_started()
        assert tt.active_updates == 1


class TestFalsePositives:
    def test_tiny_filter_false_positives_flagged(self):
        tt = TransitTable(size_bytes=8, num_hashes=2)
        a = tt.update_started()
        for i in range(50):
            tt.mark(f"member-{i}".encode(), None, a)
        hits = [tt.check(f"outsider-{i}".encode()) for i in range(100)]
        fps = [q for q in hits if q.positive]
        assert fps and all(q.false_positive for q in fps)
        assert tt.false_positives == len(fps)

    def test_paper_256b_filter_is_enough(self):
        # §6.2: 256 B protects the tens of pending connections per update.
        tt = TransitTable(size_bytes=256)
        assert tt.expected_false_positive_rate(60) < 1e-3

    def test_population_and_fill(self):
        tt = TransitTable(size_bytes=64)
        a = tt.update_started()
        tt.mark(b"a", None, a)
        assert tt.population == 1
        assert tt.fill_ratio > 0.0


class TestPerUpdateMarkAccounting:
    """Marks of a finished update must not linger while others run (§4.3)."""

    def test_finished_updates_marks_evicted_immediately(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        tt.mark(b"conn-of-a", None, a)
        tt.mark(b"conn-of-b", None, b)
        tt.update_finished(a)
        # B is still in flight, so the filter was rebuilt, not cleared --
        # and A's mark is gone the moment A finished.
        assert tt.clears == 0
        assert tt.rebuilds == 1
        assert tt.evicted_marks == 1
        assert not tt.check(b"conn-of-a").positive
        assert tt.check(b"conn-of-b").positive
        tt.update_finished(b)
        assert tt.clears == 1
        assert not tt.check(b"conn-of-b").positive

    def test_key_marked_by_both_updates_survives_first_finish(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        tt.mark(b"shared-conn", None, a)
        tt.mark(b"shared-conn", None, b)
        tt.update_finished(a)
        assert tt.check(b"shared-conn").positive
        assert tt.evicted_marks == 0
        tt.update_finished(b)
        assert not tt.check(b"shared-conn").positive

    def test_a_remark_by_the_same_update_counts_once(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        tt.mark(b"twice", None, a)
        tt.mark(b"twice", None, a)
        tt.update_finished(a)
        assert not tt.check(b"twice").positive
        assert tt.evicted_marks == 1 and tt.population == 0
        assert tt.fill_ratio == 0.0
        tt.update_finished(b)

    def test_finish_out_of_order(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        c = tt.update_started()
        tt.mark(b"of-a", None, a)
        tt.mark(b"of-b", None, b)
        tt.mark(b"of-c", None, c)
        tt.update_finished(b)
        assert tt.check(b"of-a").positive
        assert not tt.check(b"of-b").positive
        assert tt.check(b"of-c").positive
        tt.update_finished(c)
        assert tt.check(b"of-a").positive
        assert not tt.check(b"of-c").positive
        tt.update_finished(a)
        assert tt.clears == 1
        assert tt.population == 0

    def test_rebuild_preserves_no_false_negatives(self):
        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        survivors = [f"survivor-{i}".encode() for i in range(40)]
        for key in survivors:
            tt.mark(key, None, b)
        for i in range(40):
            tt.mark(f"finished-{i}".encode(), None, a)
        tt.update_finished(a)
        assert tt.evicted_marks == 40
        for key in survivors:
            assert tt.check(key).positive

    def test_finish_derives_indices_for_its_own_marks_only(self, monkeypatch):
        from repro.asicsim import registers
        from repro.asicsim.hashing import base_hash

        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        survivors = [f"survivor-{i}".encode() for i in range(40)]
        finished = [f"finished-{i}".encode() for i in range(20)]
        for key in survivors:
            tt.mark(key, base_hash(key), b)
        for key in finished:
            tt.mark(key, base_hash(key), a)
        tt.mark(survivors[0], base_hash(survivors[0]), a)  # shared with b
        derive = registers.splitmix64_many
        derived = []

        def counting(values, seed_mix=0):
            derived.append(sorted(values))
            return derive(values, seed_mix)

        monkeypatch.setattr(registers, "splitmix64_many", counting)
        monkeypatch.setattr(registers, "_splitmix64", None)  # no per-key path
        tt.update_finished(a)
        own = sorted(base_hash(key) for key in finished + [survivors[0]])
        assert derived == [own] * 4  # one batched pass per hash way
        assert tt.evicted_marks == len(finished)
        monkeypatch.undo()
        assert all(tt.check(key).positive for key in survivors)

    def test_rebuild_uses_cached_key_hashes(self):
        from repro.asicsim import hashing
        from repro.asicsim.hashing import base_hash

        tt = TransitTable(size_bytes=256)
        a = tt.update_started()
        b = tt.update_started()
        keys = [f"hashed-{i}".encode() for i in range(10)]
        bases = {key: base_hash(key) for key in keys}
        for key in keys:
            tt.mark(key, bases[key], b)
        tt.mark(b"done", base_hash(b"done"), a)
        before = hashing.BASE_HASH_CALLS
        tt.update_finished(a)  # eviction re-derives from the cached base
        assert hashing.BASE_HASH_CALLS == before
        for key in keys:
            assert tt.check(key, bases[key]).positive

    def test_metrics_count_rebuilds_and_evictions(self):
        from repro.obs.metrics import MetricRegistry

        registry = MetricRegistry()
        tt = TransitTable(size_bytes=256, metrics=registry.scope("transit"))
        a = tt.update_started()
        tt.update_started()
        tt.mark(b"gone", None, a)
        tt.update_finished(a)
        assert registry.get("transit.rebuilds_total").value == 1.0
        assert registry.get("transit.evicted_marks_total").value == 1.0
