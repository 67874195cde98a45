"""Tests for failure handling (§7)."""

from __future__ import annotations

import pytest

from repro.deploy import (
    BfdProber,
    expected_breakage_after_failover,
    health_check_bandwidth_bps,
    switch_failure_breakage,
)
from repro.netsim.packet import DirectIP

DIP = DirectIP.parse("10.0.0.1:80")


class TestHealthCheckBandwidth:
    def test_paper_arithmetic(self):
        # 10K DIPs / 10 s / 100 B -> 800 Kb/s (§7).
        assert health_check_bandwidth_bps(10_000) == pytest.approx(800_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            health_check_bandwidth_bps(-1)
        with pytest.raises(ValueError):
            health_check_bandwidth_bps(10, interval_s=0.0)
        with pytest.raises(ValueError):
            health_check_bandwidth_bps(10, probe_bytes=0)


class TestBfdProber:
    def test_detects_after_multiplier_misses(self):
        prober = BfdProber(detect_multiplier=3)
        assert prober.observe(DIP, responded=False) is None
        assert prober.observe(DIP, responded=False) is None
        assert prober.observe(DIP, responded=False) == DIP
        assert prober.is_down(DIP)

    def test_response_resets(self):
        prober = BfdProber(detect_multiplier=3)
        prober.observe(DIP, responded=False)
        prober.observe(DIP, responded=False)
        prober.observe(DIP, responded=True)
        assert prober.observe(DIP, responded=False) is None
        assert not prober.is_down(DIP)

    def test_down_reported_once(self):
        prober = BfdProber(detect_multiplier=1)
        assert prober.observe(DIP, responded=False) == DIP
        assert prober.observe(DIP, responded=False) is None  # already down

    def test_recovery(self):
        prober = BfdProber(detect_multiplier=1)
        prober.observe(DIP, responded=False)
        prober.observe(DIP, responded=True)
        assert not prober.is_down(DIP)

    def test_detection_time(self):
        prober = BfdProber(interval_s=10.0, detect_multiplier=3)
        assert prober.detection_time_s() == 30.0


class TestSwitchFailureBreakage:
    def test_latest_version_connections_survive(self):
        # All connections on the latest version: ECMP re-hash lands them at
        # switches with the same VIPTable -> no exposure.
        assert switch_failure_breakage({5: 1000}, latest_version=5) == 0.0

    def test_old_version_connections_exposed(self):
        breakage = switch_failure_breakage({5: 600, 4: 300, 3: 100}, latest_version=5)
        assert breakage == pytest.approx(0.4)

    def test_empty(self):
        assert switch_failure_breakage({}, latest_version=0) == 0.0

    def test_expected_breakage_scales_with_remap(self):
        conns = {5: 500, 4: 500}
        full = expected_breakage_after_failover(conns, 5, remap_probability=1.0)
        half = expected_breakage_after_failover(conns, 5, remap_probability=0.5)
        assert full == pytest.approx(0.5)
        assert half == pytest.approx(0.25)

    def test_remap_probability_validated(self):
        with pytest.raises(ValueError):
            expected_breakage_after_failover({1: 1}, 1, remap_probability=1.5)
