"""Tests for the serving-mode session and its control operations."""

from __future__ import annotations

import gc

import pytest

from repro.serve import ServeConfig, ServeSession
from repro.serve.session import MAX_ADVANCE_S, ApiError


def small_session(**overrides) -> ServeSession:
    """A cheap session: 2 VIPs, low arrival rate, virtual clock."""
    defaults = dict(seed=11, scale=0.01)
    defaults.update(overrides)
    return ServeSession(ServeConfig(**defaults))


def record_draws(session: ServeSession) -> list:
    """Every connection the session draws from here on (the session
    itself forgets the ones that ended on a single DIP)."""
    drawn = []
    draw = session.source.draw

    def recording(t0, t1):
        conns = draw(t0, t1)
        drawn.extend(conns)
        return conns

    session.source.draw = recording
    return drawn


def first_vip(session: ServeSession) -> str:
    return next(iter(session._vips))


def advance_until_drained(session: ServeSession, dip: str, max_steps=80) -> dict:
    for _ in range(max_steps):
        session.advance(5.0)
        record = session.drain_state(dip)
        if record["status"] == "drained":
            return record
    raise AssertionError(f"drain of {dip} never completed")


class TestAdvance:
    def test_advance_moves_clock_and_streams_arrivals(self):
        session = small_session()
        out = session.advance(10.0)
        assert out["now"] == 10.0
        assert out["arrivals"] > 0
        assert out["total_connections"] == out["arrivals"]
        assert out["arrivals"] == session.source.total_generated

    def test_bad_dt_rejected(self):
        session = small_session()
        for dt in (0, -1.0, float("nan"), "soon"):
            with pytest.raises(ApiError) as exc:
                session.advance(dt)
            assert exc.value.status == 400
            assert exc.value.code == "bad_advance"

    @pytest.mark.parametrize(
        "dt", [True, float("inf"), 1e7, 10**400, MAX_ADVANCE_S * 1.001]
    )
    def test_hostile_dt_rejected_without_advancing(self, dt):
        session = small_session()
        with pytest.raises(ApiError) as exc:
            session.advance(dt)
        assert (exc.value.status, exc.value.code) == (400, "bad_advance")
        assert session.queue.now == 0.0 and not session.held_connections()
        assert session.source.total_generated == 0

    def test_determinism_same_seed_same_fingerprint(self):
        def run() -> str:
            session = small_session()
            vip = first_vip(session)
            session.advance(5.0)
            dip = session.vip_state(session._vip(vip))["dips"][0]
            session.drain_dip(dip)
            session.advance(5.0)
            session.shutdown()
            return session.fingerprint()

        assert run() == run()


class TestDrain:
    def test_drain_is_graceful_and_completes(self):
        self.drain_is_graceful_and_completes(small_session())

    def test_fleet_drain_is_graceful_and_completes(self):
        # The fleet reports update_finished_at once every switch the drain
        # was handed to has finished it.
        self.drain_is_graceful_and_completes(small_session(num_switches=3))

    @staticmethod
    def drain_is_graceful_and_completes(session: ServeSession) -> None:
        drawn = record_draws(session)
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        session.advance(10.0)
        # Drain the backend with the most live connections so the pinned
        # phase is actually exercised.
        dips = session.lb.current_dips(vip)
        dip = max(dips, key=lambda d: session.lb.live_connections_on(vip, d))
        record = session.drain_dip(str(dip))
        assert record["status"] == "draining"

        record = advance_until_drained(session, str(dip))
        assert record["update_finished_at"] is not None
        assert record["completed_at"] is not None
        assert dip not in session.lb.current_dips(vip)
        assert session.lb.live_connections_on(vip, dip) == 0
        # Graceful: a drain never breaks a single connection.
        assert drawn and not any(c.broken_by_removal for c in drawn)
        report = session.shutdown()
        assert report["audit_ok"]
        assert report["unattributed_violations"] == 0

    def test_drain_keeps_pinned_connections_flowing(self):
        session = small_session()
        drawn = record_draws(session)
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        session.advance(10.0)
        dips = session.lb.current_dips(vip)
        dip = max(dips, key=lambda d: session.lb.live_connections_on(vip, d))
        before = session.lb.live_connections_on(vip, dip)
        assert before > 0
        session.drain_dip(str(dip))
        session.advance(0.5)
        # The pool flipped (or is flipping) but pinned connections stay on
        # their old versions: none were broken by the drain.
        assert drawn and not any(c.broken_by_removal for c in drawn)

    def test_redrain_is_idempotent(self):
        session = small_session()
        session.advance(5.0)
        vip = session._vip(first_vip(session))
        dip = str(session.lb.current_dips(vip)[0])
        first = session.drain_dip(dip)
        mutations = session.mutations
        again = session.drain_dip(dip)
        assert again == first  # same record, by value
        assert session.mutations == mutations  # no second update submitted
        # Still idempotent after completion.
        advance_until_drained(session, dip)
        final = session.drain_dip(dip)
        assert final["status"] == "drained"
        assert session.mutations == mutations

    def test_remove_breaks_connections_drain_does_not(self):
        session = small_session()
        drawn = record_draws(session)
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        session.advance(10.0)
        dips = session.lb.current_dips(vip)
        victim = max(dips, key=lambda d: session.lb.live_connections_on(vip, d))
        assert session.lb.live_connections_on(vip, victim) > 0
        session.remove_dip(str(victim))
        session.advance(0.5)
        assert any(c.broken_by_removal for c in drawn)


class TestStructuredErrors:
    def test_unknown_dip_404(self):
        session = small_session()
        with pytest.raises(ApiError) as exc:
            session.drain_dip("1.2.3.4:99")
        assert (exc.value.status, exc.value.code) == (404, "unknown_dip")
        payload = exc.value.to_payload()
        assert payload["error"]["code"] == "unknown_dip"

    def test_unknown_vip_404(self):
        session = small_session()
        with pytest.raises(ApiError) as exc:
            session.add_dip("99.99.99.99:1")
        assert (exc.value.status, exc.value.code) == (404, "unknown_vip")

    def test_add_existing_dip_409(self):
        session = small_session()
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        existing = str(session.lb.current_dips(vip)[0])
        with pytest.raises(ApiError) as exc:
            session.add_dip(vip_str, existing)
        assert (exc.value.status, exc.value.code) == (409, "dip_exists")

    def test_add_unparseable_dip_400(self):
        session = small_session()
        with pytest.raises(ApiError) as exc:
            session.add_dip(first_vip(session), "not-an-address")
        assert (exc.value.status, exc.value.code) == (400, "bad_dip")

    def test_remove_last_dip_409(self):
        session = small_session()
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        # No connections yet, so removals complete synchronously.
        while len(session.lb.current_dips(vip)) > 1:
            session.remove_dip(str(session.lb.current_dips(vip)[0]))
        last = str(session.lb.current_dips(vip)[0])
        with pytest.raises(ApiError) as exc:
            session.remove_dip(last)
        assert (exc.value.status, exc.value.code) == (409, "last_dip")
        with pytest.raises(ApiError) as exc:
            session.drain_dip(last)
        assert (exc.value.status, exc.value.code) == (409, "last_dip")

    def test_weight_validation_400(self):
        session = small_session()
        vip = session._vip(first_vip(session))
        dip = str(session.lb.current_dips(vip)[0])
        for bad in (0, -3, 65, True, 1.5, "heavy"):
            with pytest.raises(ApiError) as exc:
                session.set_weight(dip, bad)
            assert (exc.value.status, exc.value.code) == (400, "bad_weight")

    def test_not_in_pool_409(self):
        session = small_session()
        vip = session._vip(first_vip(session))
        gone = str(session.lb.current_dips(vip)[0])
        session.remove_dip(gone)  # completes instantly: no connections
        with pytest.raises(ApiError) as exc:
            session.set_weight(gone, 2)
        assert (exc.value.status, exc.value.code) == (409, "not_in_pool")

    def test_reassign_on_single_switch_409(self):
        session = small_session()
        with pytest.raises(ApiError) as exc:
            session.reassign(first_vip(session), 1)
        assert (exc.value.status, exc.value.code) == (409, "not_a_fleet")

    def test_closed_session_409(self):
        session = small_session()
        session.advance(1.0)
        session.shutdown()
        with pytest.raises(ApiError) as exc:
            session.advance(1.0)
        assert (exc.value.status, exc.value.code) == (409, "session_closed")
        # Shutdown itself stays idempotent.
        assert session.shutdown()["advances"] == 1


class TestMutations:
    def test_add_spare_grows_pool(self):
        session = small_session()
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        before = session.vip_state(vip)
        out = session.add_dip(vip_str)
        assert out["spares_left"] == before["spares_left"] - 1
        assert len(out["dips"]) == len(before["dips"]) + 1

    def test_no_spares_left_409(self):
        session = small_session(spares_per_vip=1)
        vip_str = first_vip(session)
        session.add_dip(vip_str)
        with pytest.raises(ApiError) as exc:
            session.add_dip(vip_str)
        assert (exc.value.status, exc.value.code) == (409, "no_spare_dips")

    def test_set_weight_replicates_slots(self):
        session = small_session()
        vip = session._vip(first_vip(session))
        dip_obj = session.lb.current_dips(vip)[0]
        session.set_weight(str(dip_obj), 3)
        assert session.lb.dip_weight(vip, dip_obj) == 3
        # A no-op weight change must be safe through the coordinator.
        session.set_weight(str(dip_obj), 3)
        assert session.lb.dip_weight(vip, dip_obj) == 3

    def test_readded_dip_clears_drain_record(self):
        session = small_session()
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        dip = str(session.lb.current_dips(vip)[0])
        session.drain_dip(dip)
        advance_until_drained(session, dip)
        session.add_dip(vip_str, dip)
        with pytest.raises(ApiError) as exc:
            session.drain_state(dip)
        assert exc.value.code == "not_draining"


class TestFleetSession:
    def test_fleet_state_and_reassign(self):
        session = small_session(num_switches=3)
        vip_str = first_vip(session)
        session.advance(5.0)
        state = session.state()
        assert state["mode"] == "fleet"
        assert len(state["switches"]) == 3
        entry = next(v for v in state["vips"] if v["vip"] == vip_str)
        owners = entry["owners"]
        assert len(owners) == 1  # replication=1 by default in serve
        target = next(i for i in range(3) if i not in owners)
        out = session.reassign(vip_str, target)
        assert out["to_index"] == target
        with pytest.raises(ApiError) as exc:
            session.reassign(vip_str, 99)
        assert (exc.value.status, exc.value.code) == (400, "bad_index")

    def test_fleet_drain_completes(self):
        session = small_session(num_switches=2)
        vip_str = first_vip(session)
        vip = session._vip(vip_str)
        session.advance(10.0)
        dips = session.lb.current_dips(vip)
        dip = max(dips, key=lambda d: session.lb.live_connections_on(vip, d))
        session.drain_dip(str(dip))
        record = advance_until_drained(session, str(dip))
        assert record["status"] == "drained"
        report = session.shutdown()
        assert report["audit_ok"]
        assert report["unattributed_violations"] == 0


def test_tracked_containers_per_live_connection():
    """Objects the cyclic collector tracks — and re-walks at every later
    collection — per live served connection: the record, its 5-tuple and
    the switch's per-connection state.  A pending end is a slot in the
    replay loop's end stream, not a heap event: the bound method, partial,
    argument tuple, ``EventHandle`` and heap tuple an end closure cost
    (parent ~10.7 here) are gone (now ~5.7)."""
    warm = small_session(scale=0.05)
    warm.advance(1.0)
    del warm
    gc.collect()
    session = small_session(seed=16, scale=0.05)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(40):
        session.advance(0.5)
    gc.collect()
    live = len(session.live_connections)
    assert live > 200
    assert (len(gc.get_objects()) - before) / live <= 7.0


@pytest.mark.slow
class TestMemoryFollowsLiveState:
    def test_held_records_are_the_live_and_the_broken(self):
        # 1,200 advances of 0.5 s at scale 0.5 draw ~150 K connections, of
        # which ~7 K are live at any time: the session holds those plus
        # the ended ones whose decision log is not a single DIP.
        session = ServeSession(ServeConfig(scale=0.5, chaos=True))
        ends = []
        draw = session.source.draw

        def recording(t0, t1):
            conns = draw(t0, t1)
            ends.extend(conn.end for conn in conns)
            return conns

        session.source.draw = recording
        for step in range(1, 1201):
            session.advance(0.5)
            if step % 200:
                continue
            now = session.queue.now
            live = list(session.live_connections.values())
            broken = session.ended_broken
            assert all(conn.end > now for conn in live)
            assert len(live) == sum(1 for end in ends if end > now)
            assert all(
                conn.end <= now and (conn.remapped or conn.ever_dropped)
                for conn in broken
            )
            assert len(session.held_connections()) == len(live) + len(broken)
        assert session.source.total_generated == len(ends)
        assert len(session.held_connections()) < 0.1 * len(ends)
        report = session.shutdown()
        assert report["audit_ok"] and report["total_connections"] == len(ends)


class TestShutdownAudit:
    def test_unattributed_count_is_a_field_not_parsed_text(self, monkeypatch):
        # The single-switch report's count must come from the AuditReport
        # field: reword the violation text and the number still arrives.
        from repro.serve import session as session_module

        real_audit = session_module.audit_switch

        def reworded(lb, connections):
            audit = real_audit(lb, connections)
            assert audit.ok and audit.unattributed_violations == 0
            audit.unattributed_violations = 3
            audit.violations.append("three broken flows nobody predicted")
            return audit

        monkeypatch.setattr(session_module, "audit_switch", reworded)
        session = small_session()
        session.advance(5.0)
        report = session.shutdown()
        assert not report["audit_ok"]
        assert report["unattributed_violations"] == 3
        assert "nobody predicted" in report["audit_detail"]
