"""Tests for ObsHook, the one way a runner arms recorder + sampler."""

from __future__ import annotations

from repro.baselines import DuetLoadBalancer
from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.experiments.common import build_workload
from repro.obs import ObsHook
from repro.options import DEFAULT_RECORD_CAPACITY, ObsOptions

ARMED = ObsOptions(record=True, timeline_period_s=5.0)


def _workload():
    return build_workload(updates_per_min=20.0, scale=0.05, horizon_s=10.0, warmup_s=2.0)


def test_arms_recorder_and_prefixed_sampler_on_a_switch():
    workload = _workload()
    hook = ObsHook(ARMED, "unit", workload.horizon_s, prefix="sw.")
    _report, _conns, lb = workload.replay(
        lambda: SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=50_000)),
        attach=hook,
    )
    assert lb.recorder is hook.recorder
    assert hook.recorder.source == "unit"
    assert hook.recorder.capacity == DEFAULT_RECORD_CAPACITY
    assert len(hook.recorder) > 0
    assert hook.timeline.epochs == [0.0, 5.0, 10.0]
    assert "sw.conn_table.occupancy" in hook.timeline
    assert all(name.startswith("sw.") for name in hook.timeline.names())


def test_record_source_option_overrides_the_runner_tag():
    workload = _workload()
    hook = ObsHook(
        ObsOptions(record=True, record_source="s3.cell"), "unit", workload.horizon_s
    )
    workload.replay(lambda: SilkRoadSwitch(SilkRoadConfig()), attach=hook)
    assert hook.recorder.source == "s3.cell"
    assert hook.timeline is None


def test_default_options_arm_nothing():
    workload = _workload()
    hook = ObsHook(ObsOptions(), "unit", workload.horizon_s)
    _report, _conns, lb = workload.replay(
        lambda: SilkRoadSwitch(SilkRoadConfig()), attach=hook
    )
    assert hook.recorder is None and hook.timeline is None
    assert lb.recorder is None


def test_duet_has_nothing_to_arm_and_still_replays():
    """Duet exposes neither ``attach_recorder`` nor ``metrics``."""
    workload = _workload()
    hook = ObsHook(ARMED, "unit", workload.horizon_s)
    report, _conns, lb = workload.replay(DuetLoadBalancer, attach=hook)
    assert not hasattr(lb, "attach_recorder") and not hasattr(lb, "metrics")
    assert hook.recorder is None and hook.timeline is None
    assert report.total_connections > 0
