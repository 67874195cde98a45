"""Tests for the distribution fits behind the synthetic traces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.netsim.cluster import ClusterType
from repro.traces.distributions import (
    ACTIVE_CONNS_PER_TOR_P99,
    LogNormalFit,
    NEW_CONNS_PER_VIP_PER_MIN,
    UPDATE_P99_PER_MIN,
)


def prob_above(fit: LogNormalFit, x: float) -> float:
    """P(X > x) of a fit with positive sigma, analytic."""
    from scipy.stats import norm

    return float(1.0 - norm.cdf(math.log(x / fit.median) / fit.sigma))


class TestLogNormalFit:
    def test_sample_median(self, rng):
        fit = LogNormalFit(median=100.0, sigma=1.0)
        samples = fit.sample(rng, size=50_000)
        assert np.median(samples) == pytest.approx(100.0, rel=0.05)

    def test_degenerate(self, rng):
        fit = LogNormalFit(median=5.0, sigma=0.0)
        assert fit.sample(rng) == 5.0
        assert fit.quantile(0.99) == 5.0

    def test_quantile_inverts_prob(self):
        fit = LogNormalFit(median=10.0, sigma=0.8)
        x = fit.quantile(0.9)
        assert prob_above(fit, x) == pytest.approx(0.1, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogNormalFit(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormalFit(median=1.0, sigma=-1.0)


class TestPaperAnchors:
    def test_fig2_overall_thresholds(self):
        """Fleet-weighted P(>10) and P(>50) at the p99 minute should sit
        near the paper's 32 % and 3 %."""
        from repro.traces.workload import DEFAULT_MIX

        total = sum(DEFAULT_MIX.values())
        p10 = sum(
            DEFAULT_MIX[k] / total * prob_above(UPDATE_P99_PER_MIN[k], 10.0)
            for k in DEFAULT_MIX
        )
        p50 = sum(
            DEFAULT_MIX[k] / total * prob_above(UPDATE_P99_PER_MIN[k], 50.0)
            for k in DEFAULT_MIX
        )
        assert 0.2 < p10 < 0.5  # paper: 32 %
        assert 0.005 < p50 < 0.08  # paper: 3 %

    def test_backends_update_more_than_pops(self):
        assert (
            UPDATE_P99_PER_MIN[ClusterType.BACKEND].median
            > UPDATE_P99_PER_MIN[ClusterType.POP].median
        )

    def test_fig6_peaks(self):
        # Peak clusters approach the paper's 10M (PoP) / 15M (Backend).
        pop = ACTIVE_CONNS_PER_TOR_P99[ClusterType.POP]
        backend = ACTIVE_CONNS_PER_TOR_P99[ClusterType.BACKEND]
        frontend = ACTIVE_CONNS_PER_TOR_P99[ClusterType.FRONTEND]
        assert 5e6 < pop.quantile(0.97) < 2.5e7
        assert 8e6 < backend.quantile(0.98) < 4e7
        assert frontend.quantile(0.99) < 1e6  # Frontends stay small

    def test_fig8_pop_average(self):
        fit = NEW_CONNS_PER_VIP_PER_MIN[ClusterType.POP]
        assert fit.median == pytest.approx(18_700.0)  # §3.2 PoP trace
