"""Tests for the ConnTable digest-collision (SYN false positive) path.

With deliberately narrow digests, new connections frequently hit resident
entries; the switch must redirect those SYNs to the CPU, relocate the
colliding entry, and install the new connection — with no PCC effect on
either connection (§4.2).
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    make_cluster,
    uniform_vip_workloads,
)
from repro.core.verify import audit_switch


@pytest.fixture(scope="module")
def collided_run():
    cluster = make_cluster(num_vips=2, dips_per_vip=6)
    switch = SilkRoadSwitch(
        SilkRoadConfig(
            conn_table_capacity=20_000,
            digest_bits=8,  # collisions become routine
            insertion_rate_per_s=50_000.0,
        )
    )
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=77).generate(
        uniform_vip_workloads(cluster.vips, 8_000.0), horizon_s=60.0
    ).records()
    report = FlowSimulator(switch).run(conns, horizon_s=60.0)
    return switch, conns, report


class TestCollisionHandling:
    def test_collisions_actually_happen(self, collided_run):
        switch, _conns, _report = collided_run
        assert switch.fp_syn_redirects > 0

    def test_no_pcc_impact(self, collided_run):
        _switch, conns, report = collided_run
        assert report.pcc_violations == 0

    def test_all_connections_reach_a_backend(self, collided_run):
        _switch, conns, _report = collided_run
        assert all(c.decisions and c.decisions[0][1] is not None for c in conns)

    def test_redirected_connections_install_correctly(self, collided_run):
        switch, conns, _report = collided_run
        # Long-lived connections should be resident with their own entry.
        resident = sum(1 for c in conns if c.key in switch.conn_table)
        active = sum(1 for c in conns if c.active_at(60.0))
        assert resident >= 0.9 * active

    def test_invariants_hold_despite_collisions(self, collided_run):
        switch, _conns, _report = collided_run
        audit_switch(switch).raise_if_failed()

    def test_table_counters_consistent(self, collided_run):
        switch, _conns, _report = collided_run
        table = switch.conn_table
        assert table.false_positive_lookups >= switch.fp_syn_redirects
