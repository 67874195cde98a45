"""Seeded chaos acceptance tests: faults mid-update, auditor, determinism.

These are the ISSUE's acceptance scenario: a directed fault plan that
crashes the switch CPU while updates are in flight, fails PCI-E writes for
a window, and loses learning-filter notifications — against a switch with a
slow insertion rate so the faults actually bite.  The hardened slow path
must keep every update inside its watchdog budget, the invariant auditor
must stay clean, and every PCC violation must be attributable to the fault
model's predictions (at-risk / overflow / Bloom-FP keys).
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan, run_chaos


def directed_plan() -> FaultPlan:
    """Crashes timed to land mid-update, plus write faults and lost batches."""
    return FaultPlan(
        events=(
            FaultEvent(time=2.0, kind=FaultKind.CPU_CRASH, duration_s=0.5),
            FaultEvent(
                time=4.0, kind=FaultKind.INSTALL_FAIL_WINDOW,
                duration_s=1.0, probability=0.8,
            ),
            FaultEvent(time=6.0, kind=FaultKind.CPU_CRASH, duration_s=0.5),
            FaultEvent(time=8.0, kind=FaultKind.NOTIFICATION_LOSS, count=2),
            FaultEvent(time=10.0, kind=FaultKind.CPU_CRASH, duration_s=0.5),
            FaultEvent(time=12.0, kind=FaultKind.BATCH_DELAY, count=1, delay_s=0.004),
        ),
        seed=42,
    )


def slow_cpu_config() -> SilkRoadConfig:
    # 2k inserts/s (vs. the 200k/s default) so a 0.5 s crash leaves real
    # backlog behind, and a 50 ms step deadline the crash must violate.
    return SilkRoadConfig(
        conn_table_capacity=200_000,
        insertion_rate_per_s=2_000.0,
        cpu_max_backlog=256,
        update_step_deadline_s=0.05,
    )


def run_directed(seed: int = 11):
    return run_chaos(
        seed=seed,
        scale=0.05,
        horizon_s=15.0,
        updates_per_min=120.0,
        config=slow_cpu_config(),
        plan=directed_plan(),
    )


class TestChaosAcceptance:
    @pytest.fixture(scope="class")
    def result(self):
        return run_directed()

    def test_faults_actually_fired(self, result):
        counts = result.switch.metrics.snapshot()
        assert counts["switch_cpu.crashes_total"] == 3
        assert counts["switch_cpu.jobs_lost_total"] > 0
        assert counts["switch_cpu.install_failures_total"] > 0
        assert counts["slow_path.notifications_lost_total"] == 2
        assert counts["slow_path.relearns_total"] > 0

    def test_watchdogs_forced_and_reclassified(self, result):
        counts = result.switch.metrics.snapshot()
        # The crashes overlap in-flight updates: watchdogs must have fired
        # and reclassified the stuck pending keys as at-risk.
        assert counts["update.watchdog_forced_steps_total"] > 0
        assert counts["switch.at_risk_connections"] > 0
        assert result.switch.at_risk_keys

    def test_every_update_finishes_within_watchdog_bound(self, result):
        counts = result.switch.metrics.snapshot()
        completed = counts["update.updates_completed_total"]
        assert completed == counts["update.updates_requested_total"]
        # Updates actually ran, and the overdue count below saw every one.
        assert len(result.switch.coordinator.timings) == completed > 0
        assert result.overdue_updates == 0

    def test_auditor_clean(self, result):
        assert result.audit.ok, str(result.audit)

    def test_pcc_violations_attributable_to_fault_model(self, result):
        violated = {c.key for c in result.connections if c.pcc_violated}
        assert violated  # the scenario is harsh enough to break connections
        predicted = (
            result.switch.at_risk_keys
            | result.switch.overflow_keys
            | result.switch.fp_adopted_keys
        )
        assert violated <= predicted

    def test_result_ok(self, result):
        assert result.ok, result.summary()


class TestChaosDeterminism:
    def test_same_seed_runs_are_bit_identical(self):
        first = run_directed()
        second = run_directed()
        assert first.fingerprint == second.fingerprint
        assert first.switch.metrics.snapshot() == second.switch.metrics.snapshot()
        assert first.report.pcc_violations == second.report.pcc_violations
        assert first.switch.at_risk_keys == second.switch.at_risk_keys

    def test_different_fault_seed_changes_generated_plan(self):
        a = FaultPlan.generate(1, horizon_s=30.0)
        b = FaultPlan.generate(2, horizon_s=30.0)
        assert tuple(a) != tuple(b)


class TestGeneratedChaos:
    """The CI smoke path: fully generated plan, default hardened config."""

    def test_generated_plan_stays_clean(self):
        result = run_chaos(seed=7, faults_per_min=30.0)
        assert sum(result.injector.injected.values()) == len(result.plan) > 0
        assert result.ok, result.summary()
        counts = result.switch.metrics.snapshot()
        assert (
            counts["update.updates_completed_total"]
            == counts["update.updates_requested_total"]
        )
