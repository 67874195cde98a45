"""Tests for failure handling (§7)."""

from __future__ import annotations

import pytest

from repro.deploy import (
    health_check_bandwidth_bps,
    switch_failure_breakage,
)


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
