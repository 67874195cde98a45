"""Tests for deterministic fault plans."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.faults import FLEET_KINDS, SWITCH_KINDS, FaultEvent, FaultKind, FaultPlan
from repro.faults.plan import ANY_SWITCH, DRAWS

DOC = Path(__file__).resolve().parents[2] / "docs" / "robustness.md"


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.CPU_CRASH)
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.CPU_STALL, duration_s=-0.1)
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0, kind=FaultKind.INSTALL_FAIL_WINDOW, probability=1.5
            )
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.NOTIFICATION_LOSS, count=0)
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.BATCH_DELAY, delay_s=-1.0)

    def test_defaults_are_valid(self):
        event = FaultEvent(time=1.0, kind=FaultKind.CPU_CRASH, duration_s=0.01)
        assert event.probability == 1.0
        assert event.count == 1


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        late = FaultEvent(time=5.0, kind=FaultKind.CPU_STALL, duration_s=0.01)
        early = FaultEvent(time=1.0, kind=FaultKind.CPU_CRASH, duration_s=0.01)
        plan = FaultPlan(events=(late, early))
        assert [e.time for e in plan] == [1.0, 5.0]

    def test_len_and_kinds(self):
        plan = FaultPlan(events=(
            FaultEvent(time=0.0, kind=FaultKind.NOTIFICATION_LOSS),
            FaultEvent(time=1.0, kind=FaultKind.CPU_CRASH, duration_s=0.01),
        ))
        assert len(plan) == 2
        assert plan.kinds() == (FaultKind.NOTIFICATION_LOSS, FaultKind.CPU_CRASH)

    def test_empty_plan(self):
        assert len(FaultPlan()) == 0


class TestGenerate:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(42, horizon_s=60.0)
        b = FaultPlan.generate(42, horizon_s=60.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(1, horizon_s=60.0)
        b = FaultPlan.generate(2, horizon_s=60.0)
        assert a != b

    def test_event_count_follows_rate(self):
        plan = FaultPlan.generate(7, horizon_s=60.0, faults_per_min=12.0)
        assert len(plan) == 12

    def test_positive_rate_yields_at_least_one(self):
        plan = FaultPlan.generate(7, horizon_s=1.0, faults_per_min=0.5)
        assert len(plan) == 1

    def test_zero_rate_yields_empty_plan(self):
        assert len(FaultPlan.generate(7, horizon_s=60.0, faults_per_min=0.0)) == 0

    def test_times_within_horizon(self):
        plan = FaultPlan.generate(3, horizon_s=30.0, faults_per_min=20.0)
        assert all(0.0 <= e.time <= 30.0 for e in plan)

    def test_restricted_kinds(self):
        plan = FaultPlan.generate(
            5, horizon_s=60.0, faults_per_min=10.0, kinds=(FaultKind.CPU_CRASH,)
        )
        assert set(plan.kinds()) == {FaultKind.CPU_CRASH}
        assert all(e.duration_s > 0 for e in plan)

    def test_all_kinds_eventually_drawn(self):
        plan = FaultPlan.generate(11, horizon_s=600.0, faults_per_min=30.0)
        assert set(plan.kinds()) == set(SWITCH_KINDS)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(1, horizon_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan.generate(1, horizon_s=10.0, faults_per_min=-1.0)
        with pytest.raises(ValueError):
            FaultPlan.generate(1, horizon_s=10.0, kinds=())
        with pytest.raises(ValueError, match="no such drawn field"):
            FaultPlan.generate(
                1, horizon_s=10.0, ranges={(FaultKind.CPU_CRASH, "count"): (1, 2)}
            )

    def test_ranges_replace_one_fields_default(self):
        crash = (FaultKind.CPU_CRASH,)
        base = FaultPlan.generate(5, horizon_s=60.0, faults_per_min=10.0, kinds=crash)
        slow = FaultPlan.generate(
            5,
            horizon_s=60.0,
            faults_per_min=10.0,
            kinds=crash,
            ranges={(FaultKind.CPU_CRASH, "duration_s"): (1.0, 2.0)},
        )
        assert [e.time for e in slow] == [e.time for e in base]
        assert all(1.0 <= e.duration_s <= 2.0 for e in slow)
        assert all(e.duration_s < 1.0 for e in base)


def _documented_draws():
    """``kind -> ((field or None, range), ...)`` per row of the fault-model
    table in docs/robustness.md."""
    section = DOC.read_text().split("## The fault model", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not re.fullmatch(r"`[A-Z_]+`", cells[0]):
            continue
        fields = [
            None if draw.strip() == "discarded" else draw.strip().strip("`")
            for draw in cells[2].split("→")
        ]
        spans = [
            ANY_SWITCH if span.strip() == "any switch"
            else ast.literal_eval(span.strip().strip("`"))
            for span in cells[3].split("→")
        ]
        assert len(fields) == len(spans), line
        rows[FaultKind[cells[0].strip("`")]] = tuple(zip(fields, spans))
    return rows


class TestDrawTable:
    def test_documented_table_is_the_declared_one(self):
        documented = _documented_draws()
        assert list(documented) == list(FaultKind) == [*SWITCH_KINDS, *FLEET_KINDS]
        assert documented == DRAWS

    def test_every_fleet_kind_draws_a_switch_first(self):
        for kind in FLEET_KINDS:
            assert DRAWS[kind][0][1] is ANY_SWITCH
        for kind in SWITCH_KINDS:
            assert all(span is not ANY_SWITCH for _name, span in DRAWS[kind])
