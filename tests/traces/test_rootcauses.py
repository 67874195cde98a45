"""Tests for root-cause sampling and the downtime models (Figs 3 and 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.cluster import ClusterType
from repro.netsim.updates import DOWNTIME_BY_CAUSE, RootCause
from repro.traces.rootcauses import cause_mix_for, cause_shares, sample_causes


class TestCauseMix:
    def test_backend_mix_is_paper_mix(self):
        mix = cause_mix_for(ClusterType.BACKEND)
        assert mix[RootCause.UPGRADE] == pytest.approx(0.827)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_pop_mix_excludes_backend_only_causes(self):
        mix = cause_mix_for(ClusterType.POP)
        assert RootCause.UPGRADE not in mix
        assert RootCause.TESTING not in mix
        assert sum(mix.values()) == pytest.approx(1.0)


class TestSampling:
    def test_shares_converge(self, rng):
        causes = sample_causes(rng, 30_000, ClusterType.BACKEND)
        share = causes.count(RootCause.UPGRADE) / len(causes)
        assert share == pytest.approx(0.827, abs=0.02)

    def test_count_validated(self, rng):
        with pytest.raises(ValueError):
            sample_causes(rng, -1)
        assert sample_causes(rng, 0) == []


class TestLogSynthesis:
    def test_downtime_presence_by_cause(self):
        for cause in RootCause:
            model = DOWNTIME_BY_CAUSE[cause]
            if cause in (RootCause.PROVISIONING, RootCause.REMOVING):
                assert model is None
            else:
                assert model is not None

    def test_upgrade_downtime_statistics(self, rng):
        downs = DOWNTIME_BY_CAUSE[RootCause.UPGRADE].sample(rng, size=5_000)
        assert (downs > 0).all()
        assert np.median(downs) == pytest.approx(180.0, rel=0.15)  # 3 min

    def test_cause_shares_roundtrip(self, rng):
        log = sample_causes(rng, 10_000, ClusterType.BACKEND)
        shares = cause_shares(log)
        assert shares[RootCause.UPGRADE] == pytest.approx(0.827, abs=0.03)
        assert cause_shares([]) == {}
