"""Tests for fleet synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.cluster import ClusterType
from repro.traces.workload import (
    DEFAULT_MIX,
    ClusterProfile,
    FleetSynthesizer,
)


@pytest.fixture(scope="module")
def fleet():
    return FleetSynthesizer(seed=99).synthesize()


class TestSynthesis:
    def test_default_fleet_size(self, fleet):
        assert len(fleet) == sum(DEFAULT_MIX.values())  # ~100 clusters

    def test_type_mix(self, fleet):
        for kind, count in DEFAULT_MIX.items():
            assert sum(1 for p in fleet if p.kind is kind) == count

    def test_reproducible(self):
        a = FleetSynthesizer(seed=7).synthesize()
        b = FleetSynthesizer(seed=7).synthesize()
        assert [p.active_conns_per_tor_p99 for p in a] == [
            p.active_conns_per_tor_p99 for p in b
        ]

    def test_backends_are_ipv6(self, fleet):
        for p in fleet:
            assert p.ipv6 == (p.kind is ClusterType.BACKEND)

    def test_median_below_p99(self, fleet):
        for p in fleet:
            assert p.active_conns_per_tor_median <= p.active_conns_per_tor_p99
            assert p.updates_per_min_median <= p.updates_per_min_p99

    def test_derived_quantities(self, fleet):
        p = fleet[0]
        assert p.total_dips == p.num_vips * p.dips_per_vip
        assert p.peak_pps > 0
        assert p.peak_connections == pytest.approx(
            p.active_conns_per_tor_p99 * p.num_tors
        )

    def test_custom_mix(self):
        fleet = FleetSynthesizer(seed=1).synthesize({ClusterType.POP: 3})
        assert len(fleet) == 3
        assert all(p.kind is ClusterType.POP for p in fleet)


class TestMonthlyMinutes:
    def test_mixture_hits_p99_scale(self):
        synth = FleetSynthesizer(seed=5)
        profile = synth.synthesize({ClusterType.BACKEND: 1})[0]
        counts = synth.monthly_minutes(profile, minutes=20_000)
        p99 = np.percentile(counts, 99)
        # The p99 minute should land in the vicinity of the profile's rate.
        assert p99 > profile.updates_per_min_median
        assert p99 < 10 * profile.updates_per_min_p99 + 10

    def test_vip_rates_per_cluster(self):
        synth = FleetSynthesizer(seed=5)
        profile = synth.synthesize({ClusterType.POP: 1})[0]
        rates = synth.vip_rates(profile)
        assert len(rates) == profile.num_vips
        assert (rates > 0).all()


class TestFleetStatistic:
    def test_extracts(self, fleet):
        assert all(profile.traffic_gbps > 0 for profile in fleet)
