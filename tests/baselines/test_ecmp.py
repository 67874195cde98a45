"""Tests for plain ECMP and the resilient hash table."""

from __future__ import annotations

import pytest

from repro.baselines.ecmp import EcmpLoadBalancer, ResilientHashTable
from repro.netsim import FlowSimulator, UpdateEvent, UpdateKind
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for

VIP = VirtualIP.parse("20.0.0.1:80")


def dips(n):
    return [DirectIP.parse(f"10.0.0.{i}:80") for i in range(1, n + 1)]


def conns(n, start=0.0, duration=100.0):
    return [
        Connection(
            conn_id=i,
            key=five_tuple_for(VIP, src_ip=i, src_port=1024).key_bytes(),
            vip=VIP,
            start=start,
            duration=duration,
        )
        for i in range(n)
    ]


class TestResilientHashTable:
    def test_lookup_deterministic(self):
        t = ResilientHashTable(dips(4), num_slots=64)
        assert t.lookup(b"k") == t.lookup(b"k")

    def test_slots_cover_all_members(self):
        t = ResilientHashTable(dips(4), num_slots=64)
        assert set(t.slots) == set(dips(4))

    def test_remove_rewrites_only_its_slots(self):
        t = ResilientHashTable(dips(4), num_slots=64)
        before = list(t.slots)
        victim = dips(4)[1]
        rewritten = t.remove(victim)
        for i, owner in enumerate(t.slots):
            if before[i] == victim:
                assert i in rewritten
                assert owner != victim
            else:
                assert owner == before[i]

    def test_add_steals_share(self):
        t = ResilientHashTable(dips(3), num_slots=60)
        new = DirectIP.parse("10.9.9.9:80")
        stolen = t.add(new)
        assert len(stolen) == 60 // 4
        assert set(t.slots) >= {new}

    def test_remove_last_member_rejected(self):
        t = ResilientHashTable(dips(1), num_slots=8)
        with pytest.raises(ValueError):
            t.remove(dips(1)[0])

    def test_remove_unknown_rejected(self):
        t = ResilientHashTable(dips(2), num_slots=8)
        with pytest.raises(KeyError):
            t.remove(DirectIP.parse("10.9.9.9:80"))

    def test_add_duplicate_rejected(self):
        t = ResilientHashTable(dips(2), num_slots=8)
        with pytest.raises(ValueError):
            t.add(dips(2)[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilientHashTable([], num_slots=8)
        with pytest.raises(ValueError):
            ResilientHashTable(dips(9), num_slots=8)


class TestEcmpLoadBalancer:
    def run(self, lb, connections, updates=()):
        lb.announce_vip(VIP, dips(8))
        return FlowSimulator(lb).run(connections, updates, horizon_s=100.0)

    def test_stable_without_updates(self):
        cs = conns(200)
        report = self.run(EcmpLoadBalancer(), cs)
        assert report.pcc_violations == 0

    def test_update_breaks_many_connections(self):
        cs = conns(400)
        update = UpdateEvent(50.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        report = self.run(EcmpLoadBalancer(), cs, [update])
        # Plain modulo hashing reshuffles nearly everything.
        assert report.pcc_violations > 0.3 * len(cs)

    def test_duplicate_vip_rejected(self):
        lb = EcmpLoadBalancer()
        lb.announce_vip(VIP, dips(2))
        with pytest.raises(ValueError):
            lb.announce_vip(VIP, dips(2))
