"""Tests for the Duet baseline and its migration dilemma."""

from __future__ import annotations

import pytest

from repro.baselines.duet import DuetLoadBalancer, MigrationPolicy
from repro.netsim import FlowSimulator, UpdateEvent, UpdateKind, traffic_fraction_at
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for

VIP = VirtualIP.parse("20.0.0.1:80")


def dips(n):
    return [DirectIP.parse(f"10.0.0.{i}:80") for i in range(1, n + 1)]


def conns(n, start=0.0, duration=200.0, rate=8.0):
    return [
        Connection(
            conn_id=i + int(start * 1000) * 10_000,
            key=five_tuple_for(VIP, src_ip=i + int(start), src_port=2048).key_bytes(),
            vip=VIP,
            start=start,
            duration=duration,
            rate_bps=rate,
        )
        for i in range(n)
    ]


def make_duet(policy=MigrationPolicy.PERIODIC, period=50.0):
    lb = DuetLoadBalancer(policy=policy, migrate_period_s=period)
    lb.announce_vip(VIP, dips(8))
    return lb


class TestResidency:
    def test_starts_at_switch(self):
        lb = make_duet()
        assert not lb._at_slb
        assert lb.migrations_to_slb == lb.migrations_back == 0

    def test_update_moves_vip_to_slb(self):
        lb = make_duet()
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(conns(50), [update], horizon_s=20.0)
        assert lb.migrations_to_slb == 1

    def test_periodic_migration_back(self):
        lb = make_duet(period=30.0)
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(conns(50), [update], horizon_s=100.0)
        assert lb.migrations_back >= 1

    def test_slb_intervals_recorded(self):
        lb = make_duet(period=30.0)
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(conns(50), [update], horizon_s=100.0)
        intervals = lb.slb_intervals()[VIP]
        assert intervals
        t0, t1 = intervals[0]
        assert t0 == pytest.approx(10.0)
        assert t1 == pytest.approx(30.0)

    def test_a_replay_ending_at_the_slb_reports_the_vip_there(self):
        lb = make_duet(period=500.0)
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(conns(50), [update], horizon_s=100.0)
        assert list(lb._at_slb) == [VIP]
        assert (lb.migrations_to_slb, lb.migrations_back) == (1, 0)
        intervals = lb.slb_intervals()
        assert intervals[VIP] == [(10.0, lb.queue.now)]
        lb.finalize()  # a second call closes nothing new
        assert lb.slb_intervals() == intervals
        assert list(lb._at_slb) == [VIP]
        assert (lb.migrations_to_slb, lb.migrations_back) == (1, 0)


class TestPccBehaviour:
    def test_no_updates_no_violations(self):
        lb = make_duet()
        report = FlowSimulator(lb).run(conns(200), horizon_s=100.0)
        assert report.pcc_violations == 0

    def test_migrate_back_can_break_old_connections(self):
        lb = make_duet(period=30.0)
        cs = conns(600)
        updates = [
            UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0]),
            UpdateEvent(12.0, VIP, UpdateKind.ADD, DirectIP.parse("10.9.9.9:80")),
        ]
        report = FlowSimulator(lb).run(cs, updates, horizon_s=100.0)
        assert report.pcc_violations > 0

    def test_pcc_safe_policy_never_violates(self):
        lb = make_duet(policy=MigrationPolicy.PCC_SAFE)
        cs = conns(600)
        updates = [
            UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0]),
            UpdateEvent(12.0, VIP, UpdateKind.ADD, DirectIP.parse("10.9.9.9:80")),
        ]
        report = FlowSimulator(lb).run(cs, updates, horizon_s=100.0)
        assert report.pcc_violations == 0

    def test_pcc_safe_returns_when_old_conns_finish(self):
        lb = make_duet(policy=MigrationPolicy.PCC_SAFE)
        cs = conns(100, duration=30.0)  # all finish by t=40
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(cs, [update], horizon_s=100.0)
        assert lb.migrations_back >= 1

    def test_shorter_period_breaks_more(self):
        def run_with(period):
            lb = make_duet(period=period)
            cs = conns(800, duration=500.0)  # long flows: many old conns
            updates = [
                UpdateEvent(10.0 + 40 * i, VIP, UpdateKind.REMOVE, dips(8)[i])
                for i in range(4)
            ]
            report = FlowSimulator(lb).run(cs, updates, horizon_s=400.0)
            return report.pcc_violations

        # More frequent migrate-backs expose old connections more often.
        assert run_with(30.0) >= run_with(300.0)


class TestTrafficAccounting:
    def test_slb_fraction_between_zero_and_one(self):
        lb = make_duet(period=30.0)
        cs = conns(100)
        update = UpdateEvent(10.0, VIP, UpdateKind.REMOVE, dips(8)[0])
        FlowSimulator(lb).run(cs, [update], horizon_s=100.0)
        frac = traffic_fraction_at(cs, lb.slb_intervals(), 100.0)
        assert 0.0 < frac < 1.0

    def test_never_updated_vip_has_no_slb_traffic(self):
        lb = make_duet()
        cs = conns(50)
        FlowSimulator(lb).run(cs, horizon_s=100.0)
        assert traffic_fraction_at(cs, lb.slb_intervals(), 100.0) == 0.0
