"""Tests for the cluster model."""

from __future__ import annotations

import pytest

from repro.netsim.cluster import Cluster, ClusterType, VipService, make_cluster, spare_pool
from repro.netsim.flows import CACHE, HADOOP
from repro.netsim.packet import DirectIP, VirtualIP


class TestMakeCluster:
    def test_paper_pop_defaults(self):
        cluster = make_cluster()
        assert cluster.kind is ClusterType.POP
        assert len(cluster.services) == 149  # the §3.2 PoP trace
        assert cluster.services[0].new_conns_per_min == 18_700.0
        assert cluster.services[0].duration_model is HADOOP
        assert not cluster.services[0].vip.v6

    def test_backend_defaults_ipv6_cache(self):
        cluster = make_cluster(kind=ClusterType.BACKEND, num_vips=5)
        assert cluster.services[0].vip.v6
        assert cluster.services[0].dips[0].v6
        assert cluster.services[0].duration_model is CACHE

    def test_unique_addresses(self):
        cluster = make_cluster(num_vips=20, dips_per_vip=16)
        vips = {str(s.vip) for s in cluster.services}
        dips = {str(d) for s in cluster.services for d in s.dips}
        assert len(vips) == 20
        assert len(dips) == 20 * 16

    def test_pools_are_copies(self):
        cluster = make_cluster(num_vips=2)
        pools = cluster.pools()
        pools[cluster.vips[0]].clear()
        assert len(cluster.services[0].dips) > 0

    def test_aggregates(self):
        cluster = make_cluster(num_vips=4)
        assert cluster.total_new_conns_per_min() == pytest.approx(4 * 18_700.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cluster(num_vips=0)
        with pytest.raises(ValueError):
            make_cluster(dips_per_vip=0)
        with pytest.raises(ValueError):
            Cluster(name="x", kind=ClusterType.POP, num_tors=0)
        with pytest.raises(ValueError):
            VipService(vip=VirtualIP.parse("1.1.1.1:1"), dips=[])


class TestSparePool:
    def test_disjoint_from_initial_dips(self):
        cluster = make_cluster(num_vips=5, dips_per_vip=8)
        spares = spare_pool(cluster, spares_per_vip=4)
        for service in cluster.services:
            initial = set(service.dips)
            assert not initial & set(spares[service.vip])
            assert len(spares[service.vip]) == 4

    def test_spares_match_family(self):
        cluster = make_cluster(kind=ClusterType.BACKEND, num_vips=2)
        spares = spare_pool(cluster)
        assert all(d.v6 for dips in spares.values() for d in dips)
