"""Tests for the DIP-pool update workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.cluster import make_cluster, spare_pool
from repro.netsim.updates import (
    DOWNTIME_BY_CAUSE,
    DowntimeModel,
    ROOT_CAUSE_SHARES,
    RollingUpgrade,
    RootCause,
    UpdateGenerator,
    UpdateKind,
)


class TestRootCauseShares:
    def test_shares_sum_to_one(self):
        assert sum(ROOT_CAUSE_SHARES.values()) == pytest.approx(1.0)

    def test_upgrade_dominates(self):
        assert ROOT_CAUSE_SHARES[RootCause.UPGRADE] == pytest.approx(0.827)
        others = [v for k, v in ROOT_CAUSE_SHARES.items() if k is not RootCause.UPGRADE]
        assert all(v < 0.13 for v in others)


class TestDowntimeModel:
    def test_paper_upgrade_anchors(self, rng):
        model = DOWNTIME_BY_CAUSE[RootCause.UPGRADE]
        samples = model.sample(rng, size=50_000)
        assert np.median(samples) == pytest.approx(180.0, rel=0.1)  # 3 min
        assert np.percentile(samples, 99) == pytest.approx(6000.0, rel=0.2)  # 100 min

    def test_no_downtime_for_provisioning(self):
        assert DOWNTIME_BY_CAUSE[RootCause.PROVISIONING] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DowntimeModel(median_s=0.0, p99_s=1.0)
        with pytest.raises(ValueError):
            DowntimeModel(median_s=10.0, p99_s=5.0)

    def test_degenerate_sigma_zero(self, rng):
        model = DowntimeModel(median_s=5.0, p99_s=5.0)
        assert model.sigma == 0.0
        assert model.sample(rng) == 5.0


class TestRollingUpgrade:
    def test_every_dip_removed_and_readded(self, rng, vip, dips):
        upgrade = RollingUpgrade(vip=vip, dips=dips, batch_size=2, period_s=100.0)
        events = upgrade.events(rng)
        removed = [e.dip for e in events if e.kind is UpdateKind.REMOVE]
        added = [e.dip for e in events if e.kind is UpdateKind.ADD]
        assert sorted(map(str, removed)) == sorted(map(str, dips))
        assert sorted(map(str, added)) == sorted(map(str, dips))

    def test_batches_spaced_by_period(self, rng, vip, dips):
        upgrade = RollingUpgrade(vip=vip, dips=dips, batch_size=2, period_s=100.0)
        events = upgrade.events(rng)
        removal_times = sorted({e.time for e in events if e.kind is UpdateKind.REMOVE})
        assert removal_times == [0.0, 100.0, 200.0, 300.0]

    def test_add_follows_its_remove(self, rng, vip, dips):
        events = RollingUpgrade(vip=vip, dips=dips).events(rng)
        down_at = {}
        for e in events:
            if e.kind is UpdateKind.REMOVE:
                down_at[e.dip] = e.time
            else:
                assert e.time > down_at[e.dip]

    def test_sorted_output(self, rng, vip, dips):
        events = RollingUpgrade(vip=vip, dips=dips).events(rng)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_bad_batch_size(self, rng, vip, dips):
        with pytest.raises(ValueError):
            RollingUpgrade(vip=vip, dips=dips, batch_size=0).events(rng)


class TestUpdateGenerator:
    def test_rate_respected(self):
        cluster = make_cluster(num_vips=5)
        gen = UpdateGenerator(seed=1)
        events = gen.poisson_updates(
            cluster.pools(), updates_per_min=30.0, horizon_s=600.0,
            spare_dips=spare_pool(cluster),
        )
        expected = 30.0 / 60.0 * 600.0
        assert expected * 0.7 < len(events) < expected * 1.3

    def test_pools_never_drained(self):
        cluster = make_cluster(num_vips=3, dips_per_vip=2)
        gen = UpdateGenerator(seed=2)
        events = gen.poisson_updates(
            cluster.pools(), updates_per_min=100.0, horizon_s=600.0
        )
        sizes = {vip: len(pool) for vip, pool in cluster.pools().items()}
        for e in events:
            if e.kind is UpdateKind.REMOVE:
                sizes[e.vip] -= 1
            else:
                sizes[e.vip] += 1
            assert sizes[e.vip] >= 1

    def test_adds_come_from_spares_or_prior_removes(self):
        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        spares = spare_pool(cluster, spares_per_vip=3)
        gen = UpdateGenerator(seed=3)
        events = gen.poisson_updates(
            cluster.pools(), updates_per_min=60.0, horizon_s=600.0, spare_dips=spares
        )
        available = {
            vip: set(spares[vip]) for vip in cluster.pools()
        }
        for e in events:
            if e.kind is UpdateKind.ADD:
                assert e.dip in available[e.vip]
                available[e.vip].discard(e.dip)
            else:
                available[e.vip].add(e.dip)

    def test_zero_rate_gives_no_events(self):
        cluster = make_cluster(num_vips=2)
        gen = UpdateGenerator(seed=4)
        assert gen.poisson_updates(cluster.pools(), 0.0, 600.0) == []
