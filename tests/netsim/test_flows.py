"""Tests for connection/flow models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.flows import CACHE, HADOOP, Connection, DurationModel
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for


def make_conn(start=0.0, duration=10.0) -> Connection:
    vip = VirtualIP.parse("20.0.0.1:80")
    return Connection(
        conn_id=1,
        key=five_tuple_for(vip, src_ip=1, src_port=1024).key_bytes(),
        vip=vip,
        start=start,
        duration=duration,
        rate_bps=1e6,
    )


DIP_A = DirectIP.parse("10.0.0.1:80")
DIP_B = DirectIP.parse("10.0.0.2:80")


class TestDurationModel:
    def test_paper_medians(self):
        assert HADOOP.median_s == 10.0  # Hadoop trace (§3.2)
        assert CACHE.median_s == 270.0  # cache trace, 4.5 minutes

    def test_sample_median_close(self, rng):
        samples = HADOOP.sample(rng, size=20_000)
        assert np.median(samples) == pytest.approx(10.0, rel=0.1)

    def test_quantile_analytic(self):
        model = DurationModel(median_s=10.0, sigma=1.5)
        assert model.quantile(0.5) == pytest.approx(10.0)
        assert model.quantile(0.99) > model.quantile(0.5)

    def test_mean_above_median_heavy_tail(self):
        assert HADOOP.mean() > HADOOP.median_s

    def test_validation(self):
        with pytest.raises(ValueError):
            DurationModel(median_s=0.0)
        with pytest.raises(ValueError):
            DurationModel(median_s=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            DurationModel(median_s=1.0).quantile(1.5)


class TestConnection:
    def test_lifetime(self):
        conn = make_conn(start=5.0, duration=10.0)
        assert conn.end == 15.0
        assert conn.active_at(5.0)
        assert conn.active_at(14.999)
        assert not conn.active_at(15.0)
        assert not conn.active_at(4.999)

    def test_single_decision_no_violation(self):
        conn = make_conn()
        conn.record_decision(0.0, DIP_A)
        conn.record_decision(5.0, DIP_A)  # same DIP, collapsed
        assert len(conn.decisions) == 1
        assert not conn.pcc_violated

    def test_decision_change_is_violation(self):
        conn = make_conn()
        conn.record_decision(0.0, DIP_A)
        conn.record_decision(5.0, DIP_B)
        assert conn.pcc_violated
        assert conn.remapped
        assert conn.distinct_dips() == [DIP_A, DIP_B]

    def test_broken_by_removal_excluded_from_pcc(self):
        conn = make_conn()
        conn.record_decision(0.0, DIP_A)
        conn.record_decision(5.0, DIP_B)
        conn.broken_by_removal = True
        assert not conn.pcc_violated  # its own DIP went down
        assert conn.remapped  # but the remap is still visible

    def test_none_decision_is_drop(self):
        conn = make_conn()
        conn.record_decision(0.0, None)
        assert conn.ever_dropped
        assert not conn.pcc_violated

    def test_identity_semantics(self):
        a = make_conn()
        b = make_conn()
        assert a != b  # eq=False: identity, usable in sets
        assert len({a, b}) == 2
