"""Tests for connection arrival generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.arrivals import ArrivalGenerator, VipWorkload, uniform_vip_workloads
from repro.netsim.cluster import make_cluster
from repro.netsim.flows import CACHE
from repro.netsim.packet import FiveTuple, TupleFactory, VirtualIP
from repro.serve.source import StreamingFlowSource

from .test_connection_columns import assert_same_records, reference_windows


class TestVipWorkload:
    def test_rate_conversion(self, vip):
        w = VipWorkload(vip=vip, new_conns_per_min=600.0)
        assert w.arrivals_per_second() == pytest.approx(10.0)


class TestArrivalGenerator:
    def test_count_matches_rate(self, vip):
        gen = ArrivalGenerator(seed=1)
        conns = gen.generate(
            [VipWorkload(vip=vip, new_conns_per_min=600.0)], horizon_s=300.0
        )
        expected = 600.0 / 60.0 * 300.0
        assert expected * 0.8 < len(conns) < expected * 1.2

    def test_sorted_by_start(self, vip):
        gen = ArrivalGenerator(seed=2)
        conns = gen.generate(
            [VipWorkload(vip=vip, new_conns_per_min=1000.0)], horizon_s=60.0
        )
        starts = [c.start for c in conns]
        assert starts == sorted(starts)

    def test_warmup_produces_negative_starts(self, vip):
        gen = ArrivalGenerator(seed=3)
        conns = gen.generate(
            [VipWorkload(vip=vip, new_conns_per_min=2000.0)],
            horizon_s=60.0,
            warmup_s=30.0,
        )
        assert any(c.start < 0 for c in conns)
        assert all(c.start >= -30.0 for c in conns)
        assert all(c.start < 60.0 for c in conns)

    def test_unique_five_tuples(self, vip):
        gen = ArrivalGenerator(seed=4)
        conns = gen.generate(
            [VipWorkload(vip=vip, new_conns_per_min=5000.0)], horizon_s=60.0
        )
        keys = {c.key for c in conns}
        assert len(keys) == len(conns)

    def test_conn_ids_unique_across_calls(self, vip):
        gen = ArrivalGenerator(seed=5)
        a = gen.generate([VipWorkload(vip=vip, new_conns_per_min=500.0)], horizon_s=30.0)
        b = gen.generate([VipWorkload(vip=vip, new_conns_per_min=500.0)], horizon_s=30.0)
        ids = [*a.ids.tolist(), *b.ids.tolist()]
        assert len(set(ids)) == len(ids)

    def test_reproducible_with_seed(self, vip):
        a = ArrivalGenerator(seed=6).generate(
            [VipWorkload(vip=vip, new_conns_per_min=500.0)], horizon_s=30.0
        )
        b = ArrivalGenerator(seed=6).generate(
            [VipWorkload(vip=vip, new_conns_per_min=500.0)], horizon_s=30.0
        )
        assert [c.start for c in a] == [c.start for c in b]

    def test_duration_model_respected(self, vip):
        gen = ArrivalGenerator(seed=7)
        conns = gen.generate(
            [VipWorkload(vip=vip, new_conns_per_min=10_000.0, duration_model=CACHE)],
            horizon_s=60.0,
        )
        assert np.median([c.duration for c in conns]) == pytest.approx(270.0, rel=0.2)

    def test_rejects_bad_horizon(self, vip):
        gen = ArrivalGenerator(seed=8)
        with pytest.raises(ValueError):
            gen.generate([VipWorkload(vip=vip, new_conns_per_min=1.0)], horizon_s=0.0)


class TestBulkWindow:
    @pytest.mark.parametrize("seed", [16, 17])
    def test_window_equals_the_per_record_loop(self, seed, vip, vip6):
        idle = VirtualIP.parse("20.0.0.9:53")
        workloads = [
            VipWorkload(vip=vip, new_conns_per_min=3000.0),
            VipWorkload(vip=idle, new_conns_per_min=0.0),
            VipWorkload(vip=vip6, new_conns_per_min=900.0, duration_model=CACHE,
                        rate_bps=5e5),
        ]
        columns = ArrivalGenerator(seed=seed).window(workloads, -20.0, 40.0)
        (want,) = reference_windows(seed, workloads, [(-20.0, 40.0)])
        assert len(want) > 3000
        assert_same_records(columns.records(), want)
        assert not any(c.vip == idle for c in want)
        assert [c.five_tuple for c in columns] == [c.five_tuple for c in want]

    def test_successive_windows_continue_ids_and_tuples(self, vip):
        workloads = [VipWorkload(vip=vip, new_conns_per_min=1200.0)]
        gen = ArrivalGenerator(seed=3)
        both = [*gen.window(workloads, 0.0, 10.0), *gen.window(workloads, 10.0, 20.0)]
        assert sorted(c.conn_id for c in both) == list(range(len(both)))
        assert len({c.key for c in both}) == len(both)

    @pytest.mark.parametrize("t1", [5.0, 4.0])
    def test_window_rejects_an_empty_or_backwards_span(self, vip, t1):
        workloads = [VipWorkload(vip=vip, new_conns_per_min=600.0)]
        with pytest.raises(ValueError, match="window must have positive span"):
            ArrivalGenerator(seed=1).window(workloads, 5.0, t1)
        with pytest.raises(ValueError, match="window must have positive span"):
            StreamingFlowSource(workloads, seed=1).draw(5.0, t1)

    def test_an_empty_window_is_empty_columns(self, vip):
        columns = ArrivalGenerator(seed=1).window(
            [VipWorkload(vip=vip, new_conns_per_min=0.0)], 0.0, 1.0
        )
        assert len(columns) == 0 and columns.records() == [] and list(columns) == []


class TestTupleFactoryTake:
    @pytest.mark.parametrize(
        "skip, count",
        [(0, 0), (0, 1), (0, 300), (64_500, 30), (64_511 - 1, 2), (10, 2 * 64_511 + 5)],
    )
    def test_take_is_count_calls_of_next_for(self, vip, vip6, skip, count):
        bulk, twin = TupleFactory(), TupleFactory()
        assert bulk.take_keys(vip, skip).tolist() == [
            twin.next_for(vip).key_bytes() for _ in range(skip)
        ]
        got = bulk.take_keys(vip6, count).tolist()
        assert got == [twin.next_for(vip6).key_bytes() for _ in range(count)]
        assert all(type(k) is bytes and len(k) == 37 for k in got)
        # Same counter: the two factories stay in step afterwards.
        assert bulk.take_keys(vip, 1).tolist() == [twin.next_for(vip).key_bytes()]

    def test_take_crosses_the_port_wrap(self, vip):
        tuples = [
            FiveTuple.from_key_bytes(k) for k in TupleFactory().take_keys(vip, 64_511 + 2).tolist()
        ]
        assert [(t.src_ip - tuples[0].src_ip, t.src_port) for t in tuples[-3:]] == [
            (0, 65_534), (1, 1024), (1, 1025)
        ]
        assert len(set(tuples)) == len(tuples)

    def test_take_rejects_a_negative_count(self, vip):
        with pytest.raises(ValueError):
            TupleFactory().take_keys(vip, -1)


class TestUniformWorkloads:
    def test_split_evenly(self):
        cluster = make_cluster(num_vips=10)
        workloads = uniform_vip_workloads(cluster.vips, 1000.0)
        assert len(workloads) == 10
        assert all(w.new_conns_per_min == pytest.approx(100.0) for w in workloads)

    def test_empty_vips(self):
        assert uniform_vip_workloads([], 1000.0) == []
