"""Two VIPs updating concurrently over the shared TransitTable (§4.3).

The TransitTable is one physical register array shared by every VIP.  These
tests drive two VIPs through overlapping 3-step updates plus a later
non-overlapping one, and assert that

* PCC holds for every connection throughout,
* the marks of the first update to finish are evicted immediately (a
  rebuild), instead of lingering until the last in-flight update finishes,
* the filter truly clears (population zero) between non-overlapping
  updates.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateEvent,
    UpdateKind,
    make_cluster,
    uniform_vip_workloads,
)


@pytest.fixture(scope="module")
def outcome():
    cluster = make_cluster(num_vips=2, dips_per_vip=8)
    vip_a, vip_b = cluster.vips
    config = SilkRoadConfig(
        conn_table_capacity=50_000,
        # A slow CPU and a long learning-filter timeout keep a window of
        # pending connections open at every instant, so the simultaneous
        # updates genuinely overlap in steps 1-2.
        insertion_rate_per_s=2_000.0,
        learning_filter_timeout_s=0.2,
    )
    switch = SilkRoadSwitch(config, name="concurrent")
    for svc in cluster.services:
        switch.announce_vip(svc.vip, svc.dips)
    conns = ArrivalGenerator(seed=7).generate(
        uniform_vip_workloads([vip_a, vip_b], 12_000.0),
        horizon_s=100.0,
        warmup_s=5.0,
    ).records()
    updates = [
        # Overlapping pair: both VIPs enter their 3-step update at t=30.
        UpdateEvent(30.0, vip_a, UpdateKind.REMOVE, cluster.services[0].dips[0]),
        UpdateEvent(30.0, vip_b, UpdateKind.REMOVE, cluster.services[1].dips[0]),
        # Solo update well after the pair has finished.
        UpdateEvent(70.0, vip_a, UpdateKind.REMOVE, cluster.services[0].dips[1]),
    ]
    report = FlowSimulator(switch).run(conns, updates, horizon_s=100.0)
    return report, switch


class TestConcurrentUpdatesShareFilter:
    def test_pcc_holds(self, outcome):
        report, _ = outcome
        assert report.pcc_violations == 0

    def test_all_updates_completed(self, outcome):
        _, switch = outcome
        assert switch.coordinator.updates_requested == 3
        assert switch.coordinator.updates_completed == 3

    def test_updates_actually_overlapped_and_first_finish_rebuilt(self, outcome):
        _, switch = outcome
        # The first of the simultaneous updates to reach step 3 must evict
        # its marks while the other is still in flight.
        assert switch.transit.rebuilds >= 1

    def test_filter_truly_clears_between_updates(self, outcome):
        _, switch = outcome
        # Each time the last in-flight update finished (once for the
        # overlapping pair, once for the solo update) the filter was wiped.
        assert switch.transit.clears >= 2
        assert switch.transit.active_updates == 0
        assert switch.transit.population == 0
        assert switch.transit.fill_ratio == 0.0

    def test_marks_were_exercised(self, outcome):
        _, switch = outcome
        # Sanity: the scenario really pushed pending connections through
        # the filter (otherwise the assertions above are vacuous).
        marked = sum(
            1 for timing in switch.coordinator.timings if timing.step1_s > 0.0
        )
        assert marked >= 2
        assert switch.transit.evicted_marks > 0
