"""Tests for the fault injector (plan delivery and write-fault windows)."""

from __future__ import annotations

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.netsim.events import EventQueue


class FakeSwitch:
    """Records every fault-surface call the injector makes."""

    def __init__(self):
        self.calls = []
        self.write_fault = None

    def inject_cpu_crash(self, restart_delay_s):
        self.calls.append(("crash", restart_delay_s))
        return 3  # pretend three jobs were lost

    def inject_cpu_stall(self, duration_s):
        self.calls.append(("stall", duration_s))

    def set_write_fault(self, fault):
        self.write_fault = fault

    def drop_notifications(self, count):
        self.calls.append(("drop", count))

    def delay_notifications(self, count, delay_s):
        self.calls.append(("delay", count, delay_s))


def attach(plan):
    queue = EventQueue()
    switch = FakeSwitch()
    injector = FaultInjector(plan)
    injector.attach(switch, queue)
    return queue, switch, injector


class TestDelivery:
    def test_events_delivered_in_time_order(self):
        plan = FaultPlan(events=(
            FaultEvent(time=2.0, kind=FaultKind.CPU_STALL, duration_s=0.01),
            FaultEvent(time=1.0, kind=FaultKind.CPU_CRASH, duration_s=0.02),
            FaultEvent(time=3.0, kind=FaultKind.NOTIFICATION_LOSS, count=2),
            FaultEvent(time=4.0, kind=FaultKind.BATCH_DELAY, count=1, delay_s=0.005),
        ))
        queue, switch, injector = attach(plan)
        queue.run()
        assert switch.calls == [
            ("crash", 0.02), ("stall", 0.01), ("drop", 2), ("delay", 1, 0.005),
        ]
        assert sum(injector.injected.values()) == 4
        assert injector.injected[FaultKind.CPU_CRASH] == 1
        assert injector.jobs_lost_to_crashes == 3

    def test_no_write_hook_without_fail_window(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=FaultKind.CPU_CRASH, duration_s=0.01),
        ))
        _queue, switch, _injector = attach(plan)
        assert switch.write_fault is None

    def test_empty_plan_touches_nothing(self):
        queue, switch, injector = attach(FaultPlan())
        queue.run()
        assert switch.calls == []
        assert switch.write_fault is None
        assert sum(injector.injected.values()) == 0

    def test_fault_free_replay_takes_no_fault_path(self):
        """The crash / shed / retry / watchdog hooks are always wired into
        a real switch; with no injector attached none of them fires."""
        from repro.experiments.common import build_workload, silkroad_factory

        workload = build_workload(
            updates_per_min=60.0, scale=0.1, seed=16, horizon_s=30.0, warmup_s=3.0
        )
        report, _conns, switch = workload.replay(
            silkroad_factory(conn_table_capacity=100_000)
        )
        assert report.pcc_violations == 0
        counts = switch.metrics.snapshot()
        for name in (
            "switch_cpu.jobs_shed_total", "switch_cpu.jobs_lost_total",
            "switch_cpu.crashes_total", "slow_path.relearns_total",
            "switch.at_risk_connections", "update.watchdog_forced_steps_total",
        ):
            assert counts[name] == 0.0, f"fault path fired without faults: {name}"


class TestWriteFaultWindow:
    def test_faults_only_inside_window(self):
        plan = FaultPlan(events=(
            FaultEvent(
                time=1.0, kind=FaultKind.INSTALL_FAIL_WINDOW,
                duration_s=0.5, probability=1.0,
            ),
        ))
        queue, switch, _injector = attach(plan)
        queue.run()
        assert switch.write_fault is not None
        queue.now = 1.2  # inside the window
        assert switch.write_fault(b"k") is True
        queue.now = 2.0  # past it
        assert switch.write_fault(b"k") is False

    def test_window_closed_before_event(self):
        plan = FaultPlan(events=(
            FaultEvent(
                time=5.0, kind=FaultKind.INSTALL_FAIL_WINDOW,
                duration_s=0.1, probability=1.0,
            ),
        ))
        queue, switch, _injector = attach(plan)
        # The hook is installed at attach, but no window is open yet.
        queue.run_until(1.0)
        assert switch.write_fault(b"k") is False

    def test_coin_flips_deterministic_across_runs(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=0.0, kind=FaultKind.INSTALL_FAIL_WINDOW,
                    duration_s=100.0, probability=0.5,
                ),
            ),
            seed=99,
        )
        outcomes = []
        for _ in range(2):
            queue, switch, _injector = attach(plan)
            queue.run_until(0.0)
            queue.now = 1.0
            outcomes.append([switch.write_fault(b"k") for _ in range(50)])
        assert outcomes[0] == outcomes[1]
        assert True in outcomes[0] and False in outcomes[0]
