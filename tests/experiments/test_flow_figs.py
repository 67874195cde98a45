"""Tests for the flow-simulation figures (5, 16, 17, 18).

The unmarked tests verify the harness plumbing (sweeps, system wiring,
result shapes) in seconds.  The ``slow`` ones assert each figure's claim —
who breaks connections, who breaks none, and how that moves with the
figure's axis — at a scale and horizon shrunk only as far as the claim
still holds at the listed seed and at the next one (seconds to a minute
each).
"""

from __future__ import annotations

import pytest

from repro.experiments import fig5, fig16, fig17, fig18


class TestFig5Harness:
    def test_points_cover_grid(self):
        points = fig5.run(rates=(5.0,), scale=0.1, horizon_s=120.0, seed=1)
        assert len(points) == 3  # one per policy
        assert {p.policy for p in points} == set(fig5.POLICIES)
        for p in points:
            assert 0.0 <= p.slb_traffic_fraction <= 1.0
            assert 0.0 <= p.violation_fraction <= 1.0

    def test_pcc_policy_never_violates(self):
        points = fig5.run(rates=(20.0,), scale=0.1, horizon_s=120.0, seed=2)
        safe = next(p for p in points if p.policy == "Migrate-PCC")
        assert safe.violation_fraction == 0.0

    def test_cache_traffic_breaks_more_than_hadoop(self):
        """§3.2: long flows mean many more old connections at migrate-back."""
        kwargs = dict(rates=(30.0,), scale=0.05, horizon_s=300.0, seed=6)
        hadoop = fig5.run(**kwargs)
        from repro.netsim.flows import CACHE

        cache = fig5.run(duration_model=CACHE, **kwargs)
        h = next(p for p in hadoop if p.policy == "Migrate-1min")
        c = next(p for p in cache if p.policy == "Migrate-1min")
        assert c.violation_fraction > h.violation_fraction

    @pytest.mark.slow
    def test_dilemma_shape(self):
        """Figure 5: at 50 updates/min, migrating back sooner lowers the
        SLB load but breaks more connections, and waiting for PCC safety
        costs the most SLB load and breaks none; more updates mean more SLB
        load.  The horizon must cover the 10-minute migration period, or
        Migrate-10min degenerates into never-migrate.  (Holds at seeds 5
        and 6.)"""
        points = fig5.run(rates=(1.0, 50.0), scale=0.1, seed=5, horizon_s=900.0)
        by = {(p.policy, p.updates_per_min): p for p in points}
        fast = by[("Migrate-1min", 50.0)]
        slow = by[("Migrate-10min", 50.0)]
        safe = by[("Migrate-PCC", 50.0)]
        assert fast.slb_traffic_fraction < slow.slb_traffic_fraction
        assert fast.violation_fraction >= slow.violation_fraction
        assert safe.violation_fraction == 0.0
        assert safe.slb_traffic_fraction >= slow.slb_traffic_fraction
        assert (
            by[("Migrate-10min", 1.0)].slb_traffic_fraction
            <= slow.slb_traffic_fraction
        )


class TestFig16Harness:
    def test_grid_and_silkroad_zero(self, monkeypatch):
        monkeypatch.setattr(fig16, "DUET_PERIOD_S", 20.0)
        points = fig16.run(
            rates=(10.0,),
            scale=0.1,
            horizon_s=60.0,
            seed=3,
            systems=fig16.default_systems(insertion_rate_per_s=5_000.0),
        )
        assert len(points) == 3
        by = {p.system: p for p in points}
        assert by["silkroad"].violations == 0
        assert by["duet"].measured_connections > 0

    def test_custom_system_subset(self):
        points = fig16.run(
            rates=(5.0,),
            scale=0.1,
            horizon_s=30.0,
            seed=4,
            systems={"silkroad": fig16.default_systems()["silkroad"]},
        )
        assert [p.system for p in points] == ["silkroad"]

    @pytest.mark.slow
    def test_duet_breaks_most_and_silkroad_none(self, monkeypatch):
        """Figure 16, the paper's core comparison: Duet breaks orders of
        magnitude more connections than SilkRoad without a TransitTable,
        and SilkRoad breaks none at any update rate.  (Holds at seeds 16
        and 17: Duet 835 / 661, no TransitTable 9 / 6.)"""
        monkeypatch.setattr(fig16, "DUET_PERIOD_S", 60.0)
        points = fig16.run(
            rates=(10.0, 50.0),
            scale=0.25,
            seed=16,
            horizon_s=150.0,
            systems=fig16.default_systems(insertion_rate_per_s=10_000.0),
        )
        total = {}
        for p in points:
            total[p.system] = total.get(p.system, 0) + p.violations
        assert total["silkroad"] == 0
        assert total["duet"] > total["silkroad-no-transittable"] >= 0
        assert total["duet"] >= 10 * total["silkroad-no-transittable"]
        assert total["duet"] > 0


class TestFig17Harness:
    def test_arrival_scales_swept(self):
        points = fig17.run(
            arrival_scales=(0.5, 1.0),
            scale=0.1,
            horizon_s=30.0,
            seed=5,
            systems={"silkroad": fig16.default_systems()["silkroad"]},
        )
        assert [p.arrival_scale for p in points] == [0.5, 1.0]
        assert all(p.violations == 0 for p in points)

    @pytest.mark.slow
    def test_duet_grows_with_arrival_rate_and_silkroad_breaks_none(self, monkeypatch):
        """Figure 17: SilkRoad breaks nothing at any arrival intensity,
        while Duet's breaks grow with the arrival rate (more old
        connections alive at each migrate-back).  (Holds at seeds 17 and
        18: Duet 66 → 259 / 88 → 440.)"""
        monkeypatch.setattr(fig16, "DUET_PERIOD_S", 60.0)
        points = fig17.run(
            arrival_scales=(0.5, 2.0),
            scale=0.25,
            seed=17,
            horizon_s=150.0,
            systems=fig17.default_systems(insertion_rate_per_s=10_000.0),
        )
        by = {(p.system, p.arrival_scale): p for p in points}
        assert by[("silkroad", 0.5)].violations == 0
        assert by[("silkroad", 2.0)].violations == 0
        assert by[("duet", 2.0)].violations >= by[("duet", 0.5)].violations
        assert by[("duet", 2.0)].violations > 0


class TestFig18Harness:
    def test_grid_shape(self):
        points = fig18.run(
            sizes=(8, 256),
            timeouts=(1e-3,),
            scale=0.2,
            horizon_s=20.0,
            warmup_s=2.0,
            arrival_scale=2.0,
        )
        assert len(points) == 2
        assert {p.transit_bytes for p in points} == {8, 256}
        for p in points:
            assert p.violations >= 0
            assert p.transit_fp_adopted >= 0

    @pytest.mark.slow
    def test_eight_bytes_suffice_only_at_sub_millisecond_timeouts(self):
        """Figure 18: an 8 B TransitTable protects every connection at a
        0.5 ms learning-filter timeout but saturates at 5 ms, where
        connections falsely adopt the old version and break, while 256 B
        protects everything everywhere.  The horizon stays at 30 s: at
        15 s seed 19 breaks nothing.  (Holds at seeds 18 and 19: 8 B @ 5 ms
        breaks 28 / 8.)"""
        points = fig18.run(
            sizes=(8, 256),
            timeouts=(0.5e-3, 5e-3),
            seed=18,
            horizon_s=30.0,
            warmup_s=8.0,
        )
        by = {(p.transit_bytes, p.timeout_s): p for p in points}
        assert by[(8, 0.5e-3)].violations == 0
        assert by[(8, 5e-3)].violations > 0
        assert by[(8, 5e-3)].transit_fp_adopted > 0
        assert by[(256, 0.5e-3)].violations == 0
        assert by[(256, 5e-3)].violations == 0
