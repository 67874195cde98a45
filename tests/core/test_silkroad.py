"""Integration tests for the SilkRoad switch."""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch, silkroad
from repro.netsim import (
    ArrivalGenerator,
    FlowSimulator,
    UpdateEvent,
    UpdateGenerator,
    UpdateKind,
    VipWorkload,
    make_cluster,
    spare_pool,
    uniform_vip_workloads,
)
from repro.netsim.packet import DirectIP


def small_config(**overrides) -> SilkRoadConfig:
    defaults = dict(
        conn_table_capacity=20_000,
        insertion_rate_per_s=50_000.0,
        learning_filter_timeout_s=1e-3,
    )
    defaults.update(overrides)
    return SilkRoadConfig(**defaults)


def run_switch(config, updates_per_min=10.0, conns_per_min=6000.0, horizon=90.0,
               seed=42, num_vips=4, name="sr"):
    cluster = make_cluster(num_vips=num_vips, dips_per_vip=8)
    switch = SilkRoadSwitch(config, name=name)
    for svc in cluster.services:
        switch.announce_vip(svc.vip, svc.dips)
    conns = ArrivalGenerator(seed=seed).generate(
        uniform_vip_workloads(cluster.vips, conns_per_min),
        horizon_s=horizon,
        warmup_s=15.0,
    ).records()
    updates = UpdateGenerator(seed=seed + 1).poisson_updates(
        cluster.pools(), updates_per_min=updates_per_min, horizon_s=horizon,
        spare_dips=spare_pool(cluster),
    )
    report = FlowSimulator(switch).run(conns, updates, horizon_s=horizon)
    return report, switch, conns


class TestVipProvisioning:
    def test_unknown_vip_traffic_raises(self, vip, tuples):
        from repro.netsim.flows import Connection

        switch = SilkRoadSwitch(small_config())
        ft = tuples.next_for(vip)
        conn = Connection(conn_id=1, key=ft.key_bytes(), vip=vip, start=0.0, duration=1.0)
        with pytest.raises(KeyError):
            switch.on_connection_arrival(conn)


class TestPccGuarantee:
    def test_zero_violations_with_transit_table(self):
        report, switch, _ = run_switch(small_config(), updates_per_min=40.0)
        assert report.pcc_violations == 0
        assert switch.coordinator.updates_completed == switch.coordinator.updates_requested
        assert switch.coordinator.updates_requested > 0

    def test_no_transit_table_can_violate(self):
        # Slow insertions + fast updates: pending connections re-hash.
        config = small_config(
            use_transit_table=False,
            insertion_rate_per_s=2_000.0,
            learning_filter_timeout_s=5e-3,
        )
        report, _, _ = run_switch(
            config, updates_per_min=60.0, conns_per_min=20_000.0, num_vips=2
        )
        assert report.pcc_violations > 0

    def test_transit_beats_no_transit_on_same_workload(self):
        kwargs = dict(updates_per_min=60.0, conns_per_min=15_000.0, num_vips=2)
        with_tt, _, _ = run_switch(
            small_config(insertion_rate_per_s=2_000.0, learning_filter_timeout_s=5e-3),
            **kwargs,
        )
        without_tt, _, _ = run_switch(
            small_config(
                use_transit_table=False,
                insertion_rate_per_s=2_000.0,
                learning_filter_timeout_s=5e-3,
            ),
            **kwargs,
        )
        assert with_tt.pcc_violations <= without_tt.pcc_violations

    def test_updates_eventually_complete(self):
        report, switch, _ = run_switch(small_config(), updates_per_min=20.0)
        assert switch.coordinator.updates_completed == switch.coordinator.updates_requested


class TestDataPathDetails:
    def test_connections_installed_into_conn_table(self):
        report, switch, conns = run_switch(small_config(), updates_per_min=0.0)
        # Long-lived connections should be resident at horizon end.
        assert len(switch.conn_table) > 0
        assert switch.cpu.completed > 0

    def test_decisions_point_to_pool_members(self):
        report, switch, conns = run_switch(small_config(), updates_per_min=5.0)
        for conn in conns[:500]:
            for _t, dip in conn.decisions:
                assert dip is None or isinstance(dip, DirectIP)
                assert dip is not None  # never blackholed

    def test_expired_connections_leave_table(self, monkeypatch):
        monkeypatch.setattr(silkroad, "IDLE_TIMEOUT_S", 0.5)
        config = small_config()
        cluster = make_cluster(num_vips=2, dips_per_vip=4)
        switch = SilkRoadSwitch(config)
        for svc in cluster.services:
            switch.announce_vip(svc.vip, svc.dips)
        from repro.netsim.flows import DurationModel

        short = DurationModel(median_s=1.0, sigma=0.1)
        conns = ArrivalGenerator(seed=1).generate(
            uniform_vip_workloads(cluster.vips, 600.0, duration_model=short),
            horizon_s=30.0,
        ).records()
        sim = FlowSimulator(switch)
        sim.run(conns, horizon_s=30.0)
        # Drain the expiry events past the last end + idle timeout.
        sim.queue.run_until(60.0)
        assert len(switch.conn_table) == 0

    def test_version_refcounts_balanced_after_expiry(self, monkeypatch):
        monkeypatch.setattr(silkroad, "IDLE_TIMEOUT_S", 0.1)
        config = small_config()
        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        switch = SilkRoadSwitch(config)
        vip = cluster.vips[0]
        switch.announce_vip(vip, cluster.services[0].dips)
        from repro.netsim.flows import DurationModel

        conns = ArrivalGenerator(seed=2).generate(
            uniform_vip_workloads(
                cluster.vips, 1200.0, duration_model=DurationModel(1.0, 0.1)
            ),
            horizon_s=20.0,
        ).records()
        sim = FlowSimulator(switch)
        sim.run(conns, horizon_s=20.0)
        sim.queue.run_until(40.0)
        current = switch.dip_pools.current_version(vip)
        assert switch.dip_pools.refcount(vip, current) == 0

    def test_switch_counts_reach_the_registry(self):
        _report, switch, _ = run_switch(small_config())
        counts = switch.metrics.snapshot()
        assert counts["conn_table.occupancy"] == len(switch.conn_table)
        assert counts["switch.fp_syn_redirects"] == switch.fp_syn_redirects
        assert counts["transit_table.false_positives_total"] == switch.transit.false_positives
        assert counts["update.updates_completed_total"] == switch.coordinator.updates_completed
        assert counts["switch.sram_bytes"] == switch.sram_bytes()


class TestRemovalBreakage:
    def test_connections_on_removed_dip_marked(self):
        cluster = make_cluster(num_vips=1, dips_per_vip=4)
        vip = cluster.vips[0]
        switch = SilkRoadSwitch(small_config())
        switch.announce_vip(vip, cluster.services[0].dips)
        conns = ArrivalGenerator(seed=3).generate(
            uniform_vip_workloads([vip], 3000.0), horizon_s=30.0
        ).records()
        # Remove one DIP mid-run.
        victim = cluster.services[0].dips[0]
        update = UpdateEvent(15.0, vip, UpdateKind.REMOVE, victim)
        report = FlowSimulator(switch).run(conns, [update], horizon_s=30.0)
        broken = [c for c in conns if c.broken_by_removal]
        assert broken  # some connections were on that DIP
        # Their remaps are not counted as LB-caused PCC violations.
        assert report.pcc_violations == 0


class TestTableOverflow:
    def test_overflow_counted_not_crashed(self):
        config = small_config(conn_table_capacity=200)
        report, switch, _ = run_switch(
            config, updates_per_min=0.0, conns_per_min=20_000.0, horizon=30.0
        )
        assert switch.table_full_events > 0


class TestLiveConnectionsOn:
    """``live_connections_on`` (the drain-completion signal) counts exactly
    the live connections mapped to a (VIP, DIP)."""

    def test_tracks_arrivals_and_ends(self, vip, dips, tuples):
        from repro.netsim.flows import Connection

        switch = SilkRoadSwitch(small_config())
        switch.announce_vip(vip, dips)
        conns = [
            Connection(conn_id=i, key=tuples.next_for(vip).key_bytes(), vip=vip,
                       start=0.0, duration=100.0)
            for i in range(3)
        ]
        for conn in conns:
            switch.on_connection_arrival(conn)
        assert sum(switch.live_connections_on(vip, d) for d in dips) == len(conns)
        for conn in conns:
            switch.on_connection_end(conn)
        assert sum(switch.live_connections_on(vip, d) for d in dips) == 0

    def test_exact_across_double_end_readmission_and_resume(self, vip, dips, tuples):
        """A second end, a resume of an ended entry and a re-admission over
        an ended state each leave the count equal to a recount of the live
        connections on each DIP."""
        from repro.netsim.flows import Connection

        # A 16-slot table with the §7 software overflow: some connections
        # are pinned without a ConnTable entry, so an ended one can arrive
        # again while its dead state still waits for the idle timeout.
        switch = SilkRoadSwitch(
            small_config(conn_table_capacity=8, overflow_to_software=True)
        )
        switch.announce_vip(vip, dips)
        conns = [
            Connection(conn_id=i, key=tuples.next_for(vip).key_bytes(), vip=vip,
                       start=0.0, duration=100.0)
            for i in range(20)
        ]
        for conn in conns:
            switch.on_connection_arrival(conn)
        switch.queue.run_until(1.0)
        assert switch.pending_connections() == 0
        resident = next(c for c in conns if c.key in switch.conn_table)
        pinned = next(c for c in conns if c.key not in switch.conn_table)
        live = set(conns)

        def count_is_exact():
            for dip in dips:
                expected = sum(1 for c in live if c.current_dip == dip)
                assert switch.live_connections_on(vip, dip) == expected, dip
            assert sum(switch.live_connections_on(vip, d) for d in dips) == len(live)

        count_is_exact()
        switch.on_connection_end(resident)
        switch.on_connection_end(resident)  # a hand-off racing the FIN
        live.discard(resident)
        count_is_exact()
        assert switch.resume_connection(resident)
        live.add(resident)
        count_is_exact()
        switch.on_connection_end(pinned)
        live.discard(pinned)
        count_is_exact()
        assert not switch.resume_connection(pinned)  # no entry to hit
        switch.on_connection_arrival(pinned)  # re-admitted over the dead state
        live.add(pinned)
        count_is_exact()
        for conn in conns:
            switch.on_connection_end(conn)
        live.clear()
        count_is_exact()


class TestFinalizePollCancel:
    def test_finalize_cancels_armed_poll(self, vip, dips, tuples):
        from repro.netsim.flows import Connection

        switch = SilkRoadSwitch(small_config())
        switch.announce_vip(vip, dips)
        conn = Connection(conn_id=1, key=tuples.next_for(vip).key_bytes(), vip=vip,
                          start=0.0, duration=100.0)
        switch.on_connection_arrival(conn)
        assert switch._poll_handle is not None
        assert not switch._poll_handle.cancelled
        switch.finalize()
        # The armed timer is gone and the flush reached the CPU.
        assert switch._poll_handle is None
        assert switch.learning.occupancy == 0
        assert switch.cpu.batches == 1

    def test_post_finalize_arrival_gets_fresh_timer(self, vip, dips, tuples):
        # Regression: finalize used to leave the old timeout timer armed,
        # so an event deposited afterwards was flushed at the *stale*
        # deadline instead of its own.
        from repro.netsim.flows import Connection

        config = small_config()
        switch = SilkRoadSwitch(config)
        switch.announce_vip(vip, dips)
        first = Connection(conn_id=1, key=tuples.next_for(vip).key_bytes(), vip=vip,
                           start=0.0, duration=100.0)
        switch.on_connection_arrival(first)  # timer armed at timeout
        switch.finalize()
        # A connection learned shortly after the finalize flush:
        switch.queue.run_until(0.0004)
        second = Connection(conn_id=2, key=tuples.next_for(vip).key_bytes(), vip=vip,
                            start=0.0004, duration=100.0)
        switch.on_connection_arrival(second)
        expected = 0.0004 + config.learning_filter_timeout_s
        assert switch._poll_handle is not None
        assert switch._poll_handle.time == pytest.approx(expected)


class TestOverflowDuringUpdate:
    def _fill_switch(self, vip, dips, tuples, capacity=64):
        from repro.netsim.flows import Connection

        switch = SilkRoadSwitch(small_config(conn_table_capacity=capacity))
        switch.announce_vip(vip, dips[:6])
        conns = [
            Connection(conn_id=i, key=tuples.next_for(vip).key_bytes(), vip=vip,
                       start=0.0, duration=1000.0)
            for i in range(2 * capacity)
        ]
        for conn in conns:
            switch.on_connection_arrival(conn)
        switch.queue.run_until(1.0)  # install everything that fits
        assert switch.table_full_events > 0
        return switch, conns

    def test_update_not_stalled_by_overflow(self, vip, dips, tuples):
        from repro.netsim.flows import Connection

        switch, _conns = self._fill_switch(vip, dips, tuples)
        # Fresh pre-request pending connections that can only overflow.
        fresh = [
            Connection(conn_id=1000 + i, key=tuples.next_for(vip).key_bytes(),
                       vip=vip, start=1.0, duration=1000.0)
            for i in range(4)
        ]
        for conn in fresh:
            switch.on_connection_arrival(conn)
        switch.apply_update(UpdateEvent(1.0, vip, UpdateKind.ADD, dips[6]))
        from repro.core import Phase

        assert switch.coordinator.phase(vip) is Phase.STEP1
        switch.queue.run_until(2.0)
        # Every fresh connection overflowed, aborted its pending wait, and
        # the update completed instead of stalling forever.
        assert switch.coordinator.phase(vip) is Phase.IDLE
        assert switch.coordinator.updates_completed == 1
        for conn in fresh:
            state = switch._states[conn.key]
            assert state.overflowed and not state.installed
            assert conn.key in switch.overflow_keys

    def test_overflowed_conns_rehash_at_next_flip(self, vip, dips, tuples):
        from repro.netsim.flows import Connection

        switch, _conns = self._fill_switch(vip, dips, tuples)
        fresh = [
            Connection(conn_id=2000 + i, key=tuples.next_for(vip).key_bytes(),
                       vip=vip, start=1.0, duration=1000.0)
            for i in range(4)
        ]
        for conn in fresh:
            switch.on_connection_arrival(conn)
        switch.apply_update(UpdateEvent(1.0, vip, UpdateKind.ADD, dips[6]))
        switch.queue.run_until(2.0)
        assert switch.coordinator.updates_completed == 1
        # Second flip: overflowed (slow-path) connections re-hash under the
        # new current version, exactly like any ConnTable miss would.
        switch.apply_update(UpdateEvent(2.0, vip, UpdateKind.ADD, dips[7]))
        switch.queue.run_until(3.0)
        assert switch.coordinator.updates_completed == 2
        current = switch.dip_pools.current_version(vip)
        for conn in fresh:
            state = switch._states[conn.key]
            expected = switch.dip_pools.select(
                vip, current, conn.key, conn.key_hash
            )
            assert state.current_dip == expected

    def test_table_full_events_pinned_to_overflow_count(self, vip, dips, tuples):
        switch, conns = self._fill_switch(vip, dips, tuples)
        overflowed = [
            c for c in conns if switch._states[c.key].overflowed
        ]
        # One TableFull per overflowing install attempt, no retries, no
        # double counting.
        assert switch.table_full_events == len(overflowed)
        assert switch.overflow_keys == {c.key for c in overflowed}
