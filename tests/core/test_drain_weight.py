"""Tests for the operator-initiated update kinds (DRAIN, WEIGHT).

DRAIN is a graceful removal: the DIP leaves the current pool but pinned
connections keep flowing on their old versions — nothing breaks.  REMOVE
models the server dying and breaks its connections.  WEIGHT replicates a
DIP's slot in a new pool version; a no-op weight change must pass through
the 3-step coordinator without beginning (or ending) a transition.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.netsim.flows import Connection
from repro.netsim.updates import UpdateEvent, UpdateKind


def small_config(**overrides) -> SilkRoadConfig:
    defaults = dict(
        conn_table_capacity=20_000,
        insertion_rate_per_s=50_000.0,
        learning_filter_timeout_s=1e-3,
    )
    defaults.update(overrides)
    return SilkRoadConfig(**defaults)


@pytest.fixture
def switch(vip, dips):
    switch = SilkRoadSwitch(small_config())
    switch.announce_vip(vip, dips)
    return switch


def spray(switch, vip, tuples, count, start=0.0, duration=1000.0):
    """Arrive ``count`` long-lived connections and let installs settle."""
    conns = []
    for i in range(count):
        conn = Connection(
            conn_id=i + 1,
            key=tuples.next_for(vip).key_bytes(),
            vip=vip,
            start=start,
            duration=duration,
        )
        switch.on_connection_arrival(conn)
        conns.append(conn)
    switch.queue.run_until(switch.queue.now + 1.0)
    return conns


def busiest_dip(switch, vip):
    return max(
        switch.current_dips(vip),
        key=lambda d: switch.live_connections_on(vip, d),
    )


class TestDrain:
    def test_drain_removes_dip_without_breaking_connections(
        self, switch, vip, tuples
    ):
        conns = spray(switch, vip, tuples, 64)
        dip = busiest_dip(switch, vip)
        pinned = switch.live_connections_on(vip, dip)
        assert pinned > 0
        switch.apply_update(
            UpdateEvent(switch.queue.now, vip, UpdateKind.DRAIN, dip)
        )
        switch.queue.run_until(switch.queue.now + 5.0)
        assert dip not in switch.current_dips(vip)
        # Pinned connections stay live on their old version, unbroken.
        assert switch.live_connections_on(vip, dip) == pinned
        assert not any(c.broken_by_removal for c in conns)

    def test_remove_breaks_connections(self, switch, vip, tuples):
        conns = spray(switch, vip, tuples, 64)
        dip = busiest_dip(switch, vip)
        assert switch.live_connections_on(vip, dip) > 0
        switch.apply_update(
            UpdateEvent(switch.queue.now, vip, UpdateKind.REMOVE, dip)
        )
        switch.queue.run_until(switch.queue.now + 5.0)
        assert dip not in switch.current_dips(vip)
        assert any(c.broken_by_removal for c in conns)

    def test_drain_finished_callback_fires(self, switch, vip, dips):
        finishes = []
        switch.apply_update(
            UpdateEvent(0.0, vip, UpdateKind.DRAIN, dips[0]),
            on_finished=lambda v, timing: finishes.append(v),
        )
        switch.queue.run_until(1.0)
        assert finishes == [vip]


class TestWeight:
    def test_weight_replicates_slot_in_new_version(self, switch, vip, dips):
        assert switch.dip_weight(vip, dips[0]) == 1
        switch.apply_update(
            UpdateEvent(0.0, vip, UpdateKind.WEIGHT, dips[0], weight=4)
        )
        switch.queue.run_until(1.0)
        assert switch.dip_weight(vip, dips[0]) == 4
        # The other members keep weight 1.
        assert switch.dip_weight(vip, dips[1]) == 1

    def test_weight_noop_through_coordinator_is_safe(self, switch, vip, dips):
        """Regression: a no-op WEIGHT never begins a transition, yet the
        coordinator still drives it to t_finish — the finish hook must not
        try to end a transition that never started."""
        finishes = []
        switch.apply_update(
            UpdateEvent(0.0, vip, UpdateKind.WEIGHT, dips[0], weight=1),
            on_finished=lambda v, timing: finishes.append(v),
        )
        switch.queue.run_until(1.0)
        assert finishes == [vip]
        assert switch.dip_weight(vip, dips[0]) == 1
        assert not switch.vip_table.lookup(vip).in_transition
        # The coordinator is idle again: a follow-up update runs through.
        switch.apply_update(
            UpdateEvent(switch.queue.now, vip, UpdateKind.WEIGHT, dips[0], weight=2)
        )
        switch.queue.run_until(switch.queue.now + 1.0)
        assert switch.dip_weight(vip, dips[0]) == 2

    def test_repeated_weight_noop_is_stable(self, switch, vip, dips):
        for _ in range(3):
            switch.apply_update(
                UpdateEvent(
                    switch.queue.now, vip, UpdateKind.WEIGHT, dips[2], weight=3
                )
            )
            switch.queue.run_until(switch.queue.now + 1.0)
            assert switch.dip_weight(vip, dips[2]) == 3

    def test_weight_noop_with_pending_connections(self, switch, vip, tuples):
        """The no-op hazard also applies when the update waits in STEP1
        behind pending connections before (not) executing."""
        dip = switch.current_dips(vip)[0]
        # Arrive connections but do NOT settle installs: they pend.
        for i in range(8):
            conn = Connection(
                conn_id=100 + i,
                key=tuples.next_for(vip).key_bytes(),
                vip=vip,
                start=switch.queue.now,
                duration=1000.0,
            )
            switch.on_connection_arrival(conn)
        switch.apply_update(
            UpdateEvent(switch.queue.now, vip, UpdateKind.WEIGHT, dip, weight=1)
        )
        switch.queue.run_until(switch.queue.now + 5.0)
        assert not switch.vip_table.lookup(vip).in_transition
        assert switch.dip_weight(vip, dip) == 1


class TestIntrospection:
    def test_current_dips_deduplicates_weighted_slots(self, switch, vip, dips):
        switch.apply_update(
            UpdateEvent(0.0, vip, UpdateKind.WEIGHT, dips[0], weight=4)
        )
        switch.queue.run_until(1.0)
        current = switch.current_dips(vip)
        assert len(current) == len(set(current)) == len(dips)

    def test_live_connections_on_tracks_ends(self, switch, vip, tuples):
        conns = spray(switch, vip, tuples, 32, duration=10.0)
        dip = busiest_dip(switch, vip)
        assert switch.live_connections_on(vip, dip) > 0
        for conn in conns:
            switch.on_connection_end(conn)
        switch.queue.run_until(switch.queue.now + 20.0)
        assert switch.live_connections_on(vip, dip) == 0
