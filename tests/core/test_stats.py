"""Tests for experiment statistics helpers."""

from __future__ import annotations

import pytest

from repro.core.stats import (
    PccSummary,
    active_connection_peak,
    summarize,
    violations_by_minute,
)
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for
from repro.netsim.simulator import SimulationReport

VIP = VirtualIP.parse("20.0.0.1:80")
A = DirectIP.parse("10.0.0.1:80")
B = DirectIP.parse("10.0.0.2:80")


def conn(cid, start, duration):
    return Connection(
        conn_id=cid,
        key=five_tuple_for(VIP, src_ip=cid, src_port=1024).key_bytes(),
        vip=VIP,
        start=start,
        duration=duration,
    )


class TestPccSummary:
    def test_fractions(self):
        s = PccSummary(
            system="x", updates_per_min=10, measured_connections=200,
            violations=2, horizon_s=120.0,
        )
        assert s.violation_fraction == pytest.approx(0.01)
        assert s.violations_per_minute == pytest.approx(1.0)

    def test_zero_division_guards(self):
        s = PccSummary("x", 0, 0, 0, 0.0)
        assert s.violation_fraction == 0.0
        assert s.violations_per_minute == 0.0

    def test_summarize_from_report(self):
        report = SimulationReport(
            name="sys", horizon_s=60.0, total_connections=10,
            measured_connections=8, pcc_violations=1, dropped_connections=0,
        )
        s = summarize(report, updates_per_min=5.0)
        assert s.system == "sys"
        assert s.violations == 1
        assert s.updates_per_min == 5.0


class TestViolationsByMinute:
    def test_bucketing(self):
        c1 = conn(1, 0.0, 200.0)
        c1.record_decision(0.0, A)
        c1.record_decision(65.0, B)  # violation in minute 1
        c2 = conn(2, 0.0, 200.0)
        c2.record_decision(0.0, A)  # no violation
        buckets = violations_by_minute([c1, c2])
        assert buckets == {1: 1}

    def test_broken_by_removal_excluded(self):
        c = conn(1, 0.0, 100.0)
        c.record_decision(0.0, A)
        c.record_decision(10.0, B)
        c.broken_by_removal = True
        assert violations_by_minute([c]) == {}


class TestActivePeak:
    def test_peak_counts_overlap(self):
        conns = [conn(1, 0.0, 100.0), conn(2, 30.0, 100.0), conn(3, 200.0, 10.0)]
        assert active_connection_peak(conns, horizon_s=300.0, step_s=10.0) == 2

    def test_validates_step(self):
        with pytest.raises(ValueError):
            active_connection_peak([], 10.0, step_s=0.0)

    def test_matches_sampled_rescan(self):
        """The event sweep must agree with the definitional per-sample scan."""
        import random

        rng = random.Random(13)
        conns = [
            conn(i, rng.uniform(-50.0, 280.0), rng.uniform(0.1, 90.0))
            for i in range(60)
        ]
        for horizon, step in ((300.0, 10.0), (300.0, 7.5), (99.9, 1.0), (0.0, 60.0)):
            expected = 0
            t = 0.0
            while t <= horizon:
                expected = max(
                    expected, sum(1 for c in conns if c.active_at(t))
                )
                t += step
            assert (
                active_connection_peak(conns, horizon_s=horizon, step_s=step)
                == expected
            )

    def test_boundary_samples(self):
        # Starts exactly on a sample count; ends (exclusive) do not.
        conns = [conn(1, 10.0, 10.0)]  # active on [10, 20)
        assert active_connection_peak(conns, horizon_s=30.0, step_s=10.0) == 1
        assert active_connection_peak([conn(1, 10.0, 5.0)], 30.0, step_s=10.0) == 1
        # Active only between samples -> never observed.
        assert active_connection_peak([conn(1, 11.0, 5.0)], 30.0, step_s=10.0) == 0

    def test_warmup_connections_counted(self):
        conns = [conn(1, -30.0, 100.0), conn(2, -5.0, 6.0)]
        assert active_connection_peak(conns, horizon_s=60.0, step_s=10.0) == 2
