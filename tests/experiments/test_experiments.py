"""Smoke + shape tests for the per-figure experiment harnesses.

Each test asserts the paper anchor or the *shape* its table or figure must
show.  The flow-level figures (5, 16, 17, 18) are in test_flow_figs.py.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    digest_fp,
    economics,
    fig2,
    fig3,
    fig4,
    fig6,
    fig8,
    fig12,
    fig13,
    fig14,
    fig15,
    meter_accuracy,
    table1,
    table2,
)
from repro.netsim.cluster import ClusterType
from repro.netsim.updates import RootCause


class TestTable1:
    def test_growth_factor(self):
        assert len(table1.run()) == 3
        assert table1.sram_growth_factor() == pytest.approx(5.0)

    def test_main_renders(self):
        out = table1.main()
        assert "2016" in out and "50-100" in out


class TestFig2:
    def test_thresholds_near_paper(self):
        result = fig2.run(seed=2, minutes=1500)
        pct10 = result.pct_clusters_p99_above(10)
        pct50 = result.pct_clusters_p99_above(50)
        assert 15 < pct10 < 55  # paper: 32 %
        assert 0 <= pct50 < 12  # paper: 3 %
        assert pct50 < pct10

    def test_backends_heavier(self):
        result = fig2.run(seed=2, minutes=1000)
        from repro.analysis import Cdf

        backend = Cdf.of(result.per_cluster_p99[ClusterType.BACKEND]).median
        pop = Cdf.of(result.per_cluster_p99[ClusterType.POP]).median
        assert backend > pop


class TestFig3:
    def test_upgrade_share(self):
        shares = fig3.run(seed=3, changes_per_cluster=1500)
        assert shares[RootCause.UPGRADE] == pytest.approx(0.827, abs=0.03)
        for cause, share in shares.items():
            if cause is not RootCause.UPGRADE:
                assert share < 0.13  # paper: every other cause is small


class TestFig4:
    def test_upgrade_anchors(self):
        cdfs = fig4.run(seed=4, samples=30_000)
        upgrade = cdfs[RootCause.UPGRADE]
        assert upgrade.median / 60.0 == pytest.approx(3.0, rel=0.15)
        assert upgrade.p99 / 60.0 == pytest.approx(100.0, rel=0.25)
        assert cdfs[RootCause.PROVISIONING] is None


class TestFig6:
    def test_ordering_and_scale(self):
        result = fig6.run(seed=6)
        pop = result.p99_cdf(ClusterType.POP)
        frontend = result.p99_cdf(ClusterType.FRONTEND)
        backend = result.p99_cdf(ClusterType.BACKEND)
        assert frontend.median < pop.median
        assert frontend.median < backend.median
        assert backend.quantile(1.0) > 5e6  # peak Backends in the millions
        # Paper: peak PoP ~10 M, peak Backend ~15 M, Frontends far fewer.
        assert 5e6 < pop.quantile(1.0) < 3e7
        assert 8e6 < backend.quantile(1.0) < 4e7
        assert frontend.quantile(1.0) < 1.5e6


class TestFig8:
    def test_heavy_tail(self):
        cdf = fig8.run(seed=8)
        assert cdf.quantile(0.1) < 5_000
        assert cdf.quantile(1.0) > 1e6  # spans several orders of magnitude
        # Paper: 1 K to >50 M new connections per VIP-minute.
        assert cdf.quantile(0.05) < 3_000
        assert cdf.median > 3_000


class TestTable2:
    def test_matches_paper(self):
        measured = table2.run()
        for key, val in table2.PAPER_TABLE2.items():
            assert measured[key] == pytest.approx(val, abs=0.01)

    def test_sweep_monotone_in_sram(self):
        sweep = table2.sweep_entries((100_000, 1_000_000, 10_000_000))
        srams = [row["sram"] for row in sweep.values()]
        assert srams == sorted(srams)


class TestFig12:
    def test_fits_asic_sram(self):
        result = fig12.run(seed=12)
        for kind in ClusterType:
            assert result.cdf(kind).quantile(1.0) < 100.0  # MB
        # Frontends are tiny; PoPs/Backends tens of MB.
        assert result.cdf(ClusterType.FRONTEND).median < 3.0
        assert 4.0 < result.cdf(ClusterType.POP).median < 40.0
        # Paper: PoPs 14 MB median / 32 MB peak; Backends 15 / 58;
        # Frontends < 2 MB.
        pop = result.cdf(ClusterType.POP)
        backend = result.cdf(ClusterType.BACKEND)
        assert 7 < pop.median < 28
        assert 15 < pop.quantile(1.0) < 70
        assert 6 < backend.median < 30
        assert 25 < backend.quantile(1.0) < 90
        assert result.cdf(ClusterType.FRONTEND).quantile(1.0) < 4

    def test_conn_table_dominates_pops(self):
        result = fig12.run(seed=12)
        assert result.conn_table_share[ClusterType.POP] > 0.8


class TestFig13:
    def test_frontend_and_backend_anchors(self):
        result = fig13.run(seed=13)
        frontend = result.cdf(ClusterType.FRONTEND)
        backend = result.cdf(ClusterType.BACKEND)
        assert 5 <= frontend.median <= 20  # paper: 11
        assert backend.quantile(1.0) > 50  # paper peak: 277
        assert 1 <= result.cdf(ClusterType.POP).median <= 12  # paper: 2-3
        assert 1 <= backend.median <= 8  # paper: 3


class TestFig14:
    def test_savings_anchors(self):
        result = fig14.run(seed=14)
        assert fig14.run_min_saving(result) > 0.40  # paper: all >40 %
        from repro.analysis import Cdf

        pop = Cdf.of(result.digest_version[ClusterType.POP]).median
        assert pop > 0.75  # paper: ~85 %
        # digest+version beats digest-only for the short-connection PoPs.
        assert pop > Cdf.of(result.digest_only[ClusterType.POP]).median


class TestFig15:
    def test_reuse_beats_no_reuse(self):
        points = fig15.run(update_counts=(20, 120), seed=15)
        for p in points:
            assert p.peak_live_with_reuse < p.versions_no_reuse

    def test_no_reuse_tracks_update_count(self):
        (p,) = fig15.run(update_counts=(100,), seed=15)
        assert p.versions_no_reuse == pytest.approx(p.updates_applied + 1, abs=2)

    def test_six_bits_suffice_with_reuse_at_high_rate(self):
        (p,) = fig15.run(update_counts=(330,), seed=15)
        assert p.bits_no_reuse >= 8
        assert p.peak_live_with_reuse <= 64  # fits the 6-bit field
        assert p.bits_with_reuse <= 6

    def test_reuse_gap_widens_with_update_count(self):
        points = fig15.run(update_counts=(10, 100, 330), seed=15)
        heavy = points[-1]
        assert heavy.versions_no_reuse == pytest.approx(
            heavy.updates_applied + 1, abs=3
        )
        gaps = [p.versions_no_reuse - p.peak_live_with_reuse for p in points]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps)


class TestDigestFp:
    def test_wider_digest_fewer_fps(self):
        points = digest_fp.run(
            digest_bits=(12, 16, 24), resident=8_000, probes=30_000, seed=1
        )
        by_bits = {p.digest_bits: p for p in points}
        # Wider digests cost more SRAM but collapse the false-positive rate.
        assert (
            by_bits[12].sram_bytes <= by_bits[16].sram_bytes <= by_bits[24].sram_bytes
        )
        assert by_bits[12].fp_rate > by_bits[16].fp_rate >= by_bits[24].fp_rate
        assert by_bits[16].fp_rate < 1e-3  # paper: 0.01 %
        assert by_bits[24].fp_rate < 1e-4  # ~zero at this probe count

    def test_extrapolation(self):
        points = digest_fp.run(digest_bits=(16,), resident=5_000, probes=20_000)
        p = points[0]
        assert p.fp_per_paper_minute == pytest.approx(
            p.fp_rate * 2_770_000.0
        )


class TestMeterAccuracy:
    def test_under_one_percent(self):
        points = meter_accuracy.run(settings=((2.0, 3.0, 64),))
        assert meter_accuracy.average_error(points) < 1.0  # paper: <1 %


class TestEconomics:
    def test_ratios(self):
        comparison = economics.run()
        assert comparison.power_ratio == pytest.approx(500, rel=0.25)
        assert comparison.cost_ratio == pytest.approx(250, rel=0.05)
        assert comparison.slb_count == pytest.approx(833, rel=0.01)
