"""Tests for the fleet failover survival table."""

from __future__ import annotations

import pytest

from repro.experiments import fleet_failover
from repro.experiments.parallel import run_sharded

#: fleet_failover.run's sweep knobs at its defaults, as run_sharded params.
KNOBS = dict(
    num_switches=4,
    scale=0.03,
    horizon_s=12.0,
    warmup_s=1.0,
    updates_per_min=60.0,
    faults_per_min=6.0,
)


@pytest.fixture(scope="module")
def points():
    return fleet_failover.run()


class TestFleetFailover:
    def test_every_pattern_survives_audited(self, points):
        assert [p.pattern for p in points] == list(fleet_failover.DEFAULT_PATTERNS)
        for p in points:
            assert p.plans == 4
            assert p.measured > 0 and p.faults > 0
            assert p.kept + p.broken + p.blackholed == p.measured
            assert p.audit_ok and p.unattributed == 0

    def test_only_cascade_sheds(self, points):
        shed = {p.pattern: p.shed for p in points}
        assert shed.pop("cascade") > 0
        assert set(shed.values()) == {0}

    def test_points_equal_the_sweeps_counters(self, points):
        # Cells are keyed by content, so one combined sweep of the budget-
        # free patterns, split across two shards, counts the same plans.
        free = [p.pattern for p in points if p.pattern != "cascade"]
        sweep = run_sharded(
            "fleet", num_shards=2, workers=1, seed=7,
            params=dict(KNOBS, patterns=tuple(free), plans_per_pattern=4),
        )
        cascade = run_sharded(
            "fleet", num_shards=1, workers=1, seed=7,
            params=dict(
                KNOBS, patterns=("cascade",), plans_per_pattern=4,
                conn_budget=fleet_failover.CASCADE_CONN_BUDGET,
            ),
        )
        assert points == (
            fleet_failover.survival_points(sweep, free[:3], 4)
            + fleet_failover.survival_points(cascade, ("cascade",), 4)
            + fleet_failover.survival_points(sweep, free[3:], 4)
        )

    def test_main_renders_the_shared_table(self, points):
        out = fleet_failover.main()
        assert fleet_failover.survival_table(points) in out
        assert "expectation" in out
