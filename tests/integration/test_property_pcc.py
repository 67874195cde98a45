"""Property-based PCC tests: SilkRoad never re-hashes a live connection,
whatever the update stream looks like.

Hypothesis drives randomized update sequences (kinds, timings, targets)
against small workloads; the invariant must hold for every one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateEvent,
    UpdateKind,
    make_cluster,
    spare_pool,
    uniform_vip_workloads,
)

HORIZON = 60.0


def run_silkroad(update_plan, seed=5):
    """update_plan: list of (time_fraction, vip_idx, kind, dip_idx)."""
    cluster = make_cluster(num_vips=2, dips_per_vip=6)
    spares = spare_pool(cluster, spares_per_vip=6)
    switch = SilkRoadSwitch(
        SilkRoadConfig(
            conn_table_capacity=20_000,
            insertion_rate_per_s=5_000.0,
            learning_filter_timeout_s=2e-3,
        )
    )
    for service in cluster.services:
        switch.announce_vip(service.vip, service.dips)
    conns = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads(cluster.vips, 3_000.0), horizon_s=HORIZON, warmup_s=5.0
    ).records()
    # Build a legal update stream from the plan: remove live members,
    # re-add previously removed or spare DIPs.
    pools = {s.vip: list(s.dips) for s in cluster.services}
    removed = {s.vip: [] for s in cluster.services}
    available = {vip: list(dips) for vip, dips in spares.items()}
    updates = []
    # Build in time order so pool bookkeeping matches application order.
    for frac, vip_idx, want_add, pick in sorted(update_plan, key=lambda p: p[0]):
        vip = cluster.vips[vip_idx % len(cluster.vips)]
        t = max(0.0, min(frac, 0.99)) * HORIZON
        if want_add and (removed[vip] or available[vip]):
            source = removed[vip] if removed[vip] else available[vip]
            dip = source.pop(pick % len(source))
            pools[vip].append(dip)
            updates.append(UpdateEvent(t, vip, UpdateKind.ADD, dip))
        elif len(pools[vip]) > 1:
            dip = pools[vip].pop(pick % len(pools[vip]))
            removed[vip].append(dip)
            updates.append(UpdateEvent(t, vip, UpdateKind.REMOVE, dip))
    updates.sort(key=lambda e: e.time)
    report = FlowSimulator(switch).run(conns, updates, horizon_s=HORIZON)
    return report, switch


class TestPccInvariant:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=0, max_value=1),
                st.booleans(),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=12,
        )
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_silkroad_never_violates_pcc(self, update_plan):
        report, switch = run_silkroad(update_plan)
        assert report.pcc_violations == 0
        # Every requested update must eventually complete (liveness).
        assert (
            switch.coordinator.updates_completed
            == switch.coordinator.updates_requested
        )

    def test_burst_of_updates_at_same_instant(self):
        # All updates land at t=30.0 sharp: queueing must serialize them.
        plan = [(0.5, 0, False, i) for i in range(4)] + [
            (0.5, 0, True, i) for i in range(4)
        ]
        report, switch = run_silkroad(plan)
        assert report.pcc_violations == 0
        assert switch.coordinator.updates_completed == switch.coordinator.updates_requested
