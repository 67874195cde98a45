"""Tests for the PCC forensics engine behind ``repro chaos --explain``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest

from repro.obs.events import (
    CONN_OVERFLOW,
    CONN_SYN,
    FAULT_CPU_CRASH,
    FAULT_CPU_STALL,
    UPDATE_T_EXEC,
)
from repro.obs.forensics import coverage, explain_violations, format_stories
from repro.obs.recorder import FlightRecorder
from repro.options import ObsOptions


@dataclass
class FakeConn:
    conn_id: int
    key: bytes
    vip: str = "20.0.0.1:80"
    start: float = 1.0
    duration: float = 2.0
    pcc_violated: bool = True
    decisions: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class FakeSwitch:
    at_risk_keys: set = field(default_factory=set)
    overflow_keys: set = field(default_factory=set)
    fp_adopted_keys: set = field(default_factory=set)
    recorder: FlightRecorder = None


class TestExplain:
    def make_scene(self):
        rec = FlightRecorder()
        conn = FakeConn(
            conn_id=7,
            key=b"\xaa\xbb",
            decisions=[(1.0, "dip-a"), (1.5, "dip-b"), (2.0, "dip-b")],
        )
        rec.record(1.0, CONN_SYN, conn.key, conn.vip)
        rec.record(1.2, CONN_OVERFLOW, conn.key, False)
        rec.record(1.4, UPDATE_T_EXEC, None, conn.vip, "remove", "10.0.0.1:80", 0, 1)
        rec.record(1.45, FAULT_CPU_CRASH, None, 0.01, 1, 0.0, 0.0)
        # Context outside the lifetime window: excluded.
        rec.record(50.0, FAULT_CPU_STALL, None, 0.01, 1, 0.0, 0.0)
        # Update for a different VIP: excluded.
        rec.record(1.6, UPDATE_T_EXEC, None, "30.0.0.1:80", "add", "10.0.0.2:80", 0, 1)
        switch = FakeSwitch(overflow_keys={conn.key}, recorder=rec)
        return switch, conn

    def test_story_joins_key_context_and_decisions(self):
        switch, conn = self.make_scene()
        (story,) = explain_violations(switch, [conn])
        assert story.conn_id == 7
        assert story.cause == "overflow"
        assert story.attributed and story.has_events
        assert story.decision_changes == 1
        names = [(e["category"], e["name"]) for e in story.timeline]
        assert ("conn", "syn") in names
        assert ("conn", "overflow") in names
        assert ("update", "t_exec") in names
        assert ("fault", "cpu_crash") in names
        assert ("fault", "cpu_stall") not in names  # outside the window
        # Other-VIP updates are filtered out.
        assert sum(1 for c, n in names if (c, n) == ("update", "t_exec")) == 1
        # Entries are chronological.
        ts = [e["t"] for e in story.timeline]
        assert ts == sorted(ts)
        # First decision renders as "forward", later ones as changes.
        decisions = [e for e in story.timeline if e["category"] == "decision"]
        assert decisions[0]["name"] == "forward"
        assert decisions[1]["name"] == "decision_change"

    def test_skips_warmup_and_clean_connections(self):
        switch, conn = self.make_scene()
        warmup = FakeConn(conn_id=1, key=b"w", start=-5.0)
        clean = FakeConn(conn_id=2, key=b"c", pcc_violated=False)
        stories = explain_violations(switch, [warmup, clean, conn])
        assert [s.conn_id for s in stories] == [7]

    def test_unattributed_violation_is_reported(self):
        switch, conn = self.make_scene()
        stray = FakeConn(conn_id=9, key=b"\x01")
        stories = explain_violations(switch, [conn, stray])
        by_id = {s.conn_id: s for s in stories}
        assert by_id[9].cause == "unattributed"
        stats = coverage(stories)
        assert stats["violations"] == 2
        assert stats["attributed"] == 1
        assert stats["attributed_with_events"] == 1
        assert stats["unattributed"] == 1

    def test_works_without_recorder(self):
        conn = FakeConn(conn_id=3, key=b"\x02", decisions=[(1.0, "d")])
        switch = FakeSwitch(at_risk_keys={conn.key})
        (story,) = explain_violations(switch, [conn])
        assert story.cause == "at_risk"
        assert not story.has_events  # only the decision log
        assert coverage([story])["attributed_with_events"] == 0

    def test_format_stories_renders_and_limits(self):
        switch, conn = self.make_scene()
        other = FakeConn(conn_id=8, key=b"\x03")
        stories = explain_violations(switch, [conn, other])
        text = format_stories(stories, limit=1)
        assert "conn 7" in text
        assert "cause: overflow" in text
        assert "1 more violation(s)" in text
        assert format_stories([]) == "no PCC violations to explain"


@pytest.fixture(scope="module")
def shrunk_chaos():
    """A recorded chaos run whose shrunken ConnTable breaks PCC."""
    from repro.faults import run_chaos
    from repro.faults.chaos import chaos_config

    return run_chaos(
        seed=1,
        scale=0.1,
        horizon_s=20.0,
        updates_per_min=200.0,
        faults_per_min=90.0,
        config=chaos_config(conn_table_capacity=400),
        obs=ObsOptions(record=True),
    )


class TestChaosIntegration:
    def test_explain_and_the_audit_give_one_verdict(self, shrunk_chaos):
        # Forensics and the switch audit judge through one rule: for every
        # measured violated connection, the story is attributed exactly
        # when the audit of that connection alone finds nothing
        # unattributed.
        from repro.core.verify import audit_switch

        result = shrunk_chaos
        stories = {
            s.conn_id: s for s in explain_violations(result.switch, result.connections)
        }
        measured = [c for c in result.connections if c.start >= 0 and c.pcc_violated]
        assert measured and sorted(stories) == sorted(c.conn_id for c in measured)
        for conn in measured:
            audit = audit_switch(result.switch, connections=[conn])
            attributed = audit.unattributed_violations == 0
            assert stories[conn.conn_id].attributed == attributed
        # And when the exposure sets lose a key, both lose it.
        switch, conn = result.switch, measured[0]
        exposures = [switch.at_risk_keys, switch.overflow_keys, switch.fp_adopted_keys]
        held = [keys for keys in exposures if conn.key in keys]
        for keys in held:
            keys.discard(conn.key)
        try:
            (story,) = explain_violations(switch, [conn])
            audit = audit_switch(switch, connections=[conn])
            assert not story.attributed and audit.unattributed_violations == 1
        finally:
            for keys in held:
                keys.add(conn.key)

    def test_every_induced_violation_gets_an_evidenced_story(self, shrunk_chaos):
        """The ``repro chaos --explain --require-complete`` gate, as a
        test: a recorded chaos run with a shrunken ConnTable produces
        violations, and every one is attributed with recorder evidence."""
        result = shrunk_chaos
        assert result.report.pcc_violations > 0, "scenario must induce violations"
        stories = explain_violations(
            result.switch, result.connections, recorder=result.recorder
        )
        stats = coverage(stories)
        assert stats["violations"] == result.report.pcc_violations
        assert stats["unattributed"] == 0
        assert stats["attributed_with_events"] == stats["attributed"]
