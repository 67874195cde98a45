"""Tests for the flow-level simulation driver."""

from __future__ import annotations

import pytest

from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP, five_tuple_for
from repro.netsim.simulator import (
    FlowSimulator,
    LoadBalancer,
    SimulationReport,
    traffic_fraction_at,
)
from repro.netsim.updates import UpdateEvent, UpdateKind

VIP = VirtualIP.parse("20.0.0.1:80")
DIP_A = DirectIP.parse("10.0.0.1:80")
DIP_B = DirectIP.parse("10.0.0.2:80")


def conn(cid: int, start: float, duration: float, rate: float = 8.0) -> Connection:
    return Connection(
        conn_id=cid,
        key=five_tuple_for(VIP, src_ip=cid, src_port=1024).key_bytes(),
        vip=VIP,
        start=start,
        duration=duration,
        rate_bps=rate,
    )


class RecordingLb(LoadBalancer):
    """Pins every connection to DIP_A; flips to DIP_B on any update."""

    name = "recording"

    def __init__(self) -> None:
        self.current = DIP_A
        self.events = []
        self.active = set()

    def on_connection_arrival(self, c: Connection) -> None:
        self.events.append(("arrival", self.queue.now))
        c.record_decision(self.queue.now, self.current)
        self.active.add(c)

    def on_connection_end(self, c: Connection) -> None:
        self.events.append(("end", self.queue.now))
        self.active.discard(c)

    def apply_update(self, event: UpdateEvent) -> None:
        self.events.append(("update", self.queue.now))
        self.current = DIP_B
        for c in self.active:
            c.record_decision(self.queue.now, self.current)


class TestFlowSimulator:
    def test_arrival_and_end_delivered_in_order(self):
        lb = RecordingLb()
        sim = FlowSimulator(lb)
        sim.run([conn(1, 1.0, 5.0)], horizon_s=10.0)
        kinds = [k for k, _ in lb.events]
        assert kinds == ["arrival", "end"]

    def test_update_before_arrival_at_same_time(self):
        lb = RecordingLb()
        sim = FlowSimulator(lb)
        update = UpdateEvent(1.0, VIP, UpdateKind.REMOVE, DIP_A)
        sim.run([conn(1, 1.0, 5.0)], [update], horizon_s=10.0)
        kinds = [k for k, _ in lb.events]
        assert kinds.index("update") < kinds.index("arrival")

    def test_violations_counted(self):
        lb = RecordingLb()
        sim = FlowSimulator(lb)
        update = UpdateEvent(3.0, VIP, UpdateKind.ADD, DIP_B)
        report = sim.run(
            [conn(1, 1.0, 10.0), conn(2, 5.0, 3.0)], [update], horizon_s=20.0
        )
        # conn 1 was active at the flip: violated.  conn 2 arrived after.
        assert report.pcc_violations == 1
        assert report.measured_connections == 2

    def test_warmup_connections_excluded_from_measurement(self):
        lb = RecordingLb()
        sim = FlowSimulator(lb)
        update = UpdateEvent(1.0, VIP, UpdateKind.ADD, DIP_B)
        report = sim.run(
            [conn(1, -5.0, 20.0), conn(2, 0.5, 10.0)], [update], horizon_s=20.0
        )
        assert report.total_connections == 2
        assert report.measured_connections == 1
        # Both flipped, but only the measured one counts.
        assert report.pcc_violations == 1

    def test_negative_update_time_rejected(self):
        sim = FlowSimulator(RecordingLb())
        bad = UpdateEvent(-1.0, VIP, UpdateKind.ADD, DIP_B)
        with pytest.raises(ValueError):
            sim.run([conn(1, 0.0, 1.0)], [bad], horizon_s=5.0)

    def test_summary_format(self):
        lb = RecordingLb()
        report = FlowSimulator(lb).run([conn(1, 0.0, 1.0)], horizon_s=60.0)
        assert "recording" in report.summary()
        assert report.violations_per_minute == 0.0


class TestTrafficFraction:
    def test_full_overlap(self):
        c = conn(1, 0.0, 10.0, rate=8.0)
        frac = traffic_fraction_at([c], {VIP: [(0.0, 10.0)]}, horizon_s=10.0)
        assert frac == pytest.approx(1.0)

    def test_partial_overlap(self):
        c = conn(1, 0.0, 10.0, rate=8.0)
        frac = traffic_fraction_at([c], {VIP: [(5.0, 10.0)]}, horizon_s=10.0)
        assert frac == pytest.approx(0.5)

    def test_no_intervals(self):
        c = conn(1, 0.0, 10.0)
        assert traffic_fraction_at([c], {}, horizon_s=10.0) == 0.0

    def test_clipped_to_horizon(self):
        c = conn(1, 0.0, 100.0, rate=8.0)
        frac = traffic_fraction_at([c], {VIP: [(0.0, 100.0)]}, horizon_s=10.0)
        assert frac == pytest.approx(1.0)  # both clipped identically

    def test_empty_workload(self):
        assert traffic_fraction_at([], {VIP: [(0, 1)]}, horizon_s=10.0) == 0.0
