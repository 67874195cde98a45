"""The serving session against the scalar oracle.

A session advances by feeding each drawn window to the replay loop
(:class:`~repro.netsim.batchsim.BatchedFlowSimulator`) and running it to
the window's end.  Replaying every window it drew in one go through the
event-at-a-time :class:`~repro.netsim.simulator.FlowSimulator` — same
switch config and name, same fault plan, horizon = the session's clock —
must give the same switch: equal registry fingerprint, equal ConnTable
slots, equal audit.  This is the serve path's oracle.
"""

from __future__ import annotations

import pytest

from repro.core import SilkRoadConfig, SilkRoadSwitch
from repro.core.verify import audit_switch
from repro.deploy.fleet import FleetSilkRoad, audit_fleet
from repro.faults.injector import FaultInjector
from repro.netsim.flows import Connection
from repro.netsim.simulator import FlowSimulator
from repro.serve import ServeConfig, ServeSession
from repro.serve.session import FLEET_REPLICATION

ADVANCES = 40
DT_S = 0.5


def _drive(config: ServeConfig):
    """Advance a session with no mutations; returns it and every window it
    drew, in draw order."""
    session = ServeSession(config)
    windows = []
    draw = session.source.draw

    def recording(t0, t1):
        conns = draw(t0, t1)
        windows.append(conns)
        return conns

    session.source.draw = recording
    for _ in range(ADVANCES):
        session.advance(DT_S)
    return session, windows


def _oracle(session: ServeSession, windows):
    """The same traffic replayed once through the scalar driver."""
    config = session.config
    if session.is_fleet:
        lb = FleetSilkRoad(
            num_switches=config.num_switches,
            config=SilkRoadConfig(),
            name="fleet-serve",
            replication=FLEET_REPLICATION,
        )
    else:
        lb = SilkRoadSwitch(SilkRoadConfig(), name="silkroad-serve")
    for service in session.cluster.services:
        lb.announce_vip(service.vip, service.dips)
    faults = None if session.injector is None else FaultInjector(session.injector.plan)
    conns = [
        Connection(c.conn_id, c.key, c.vip, c.start, c.duration, c.rate_bps, c.key_hash)
        for window in windows
        for c in window
    ]
    FlowSimulator(lb, faults=faults).run(conns, horizon_s=session.queue.now)
    return lb, conns


def _switches(lb):
    if isinstance(lb, FleetSilkRoad):
        return [switch for _i, _gen, switch in lb.instances()]
    return [lb]


@pytest.mark.parametrize("num_switches", [1, 3])
@pytest.mark.parametrize("chaos", [False, True])
def test_session_matches_scalar_replay(num_switches, chaos):
    config = ServeConfig(seed=16, scale=0.05, num_switches=num_switches, chaos=chaos)
    session, windows = _drive(config)
    report = session.shutdown()
    lb, conns = _oracle(session, windows)
    assert sum(map(len, windows)) == report["total_connections"] > 0

    fingerprint = lb.fingerprint() if session.is_fleet else lb.metrics.fingerprint()
    assert report["fingerprint"] == fingerprint
    assert [list(s.conn_table.entries()) for s in _switches(session.lb)] == [
        list(s.conn_table.entries()) for s in _switches(lb)
    ]
    audit = (audit_fleet if session.is_fleet else audit_switch)(lb, conns)
    assert report["audit_detail"] == str(audit)
