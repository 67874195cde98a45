"""Time series of a simulated run, read through the one sampler.

``repro.netsim.telemetry`` (``Sampler`` / ``Series`` / ``watch_switch``) is
gone; the cases below are the ones that still apply, kept under their
original test IDs and retargeted at what replaced it —
:class:`repro.obs.TimelineSampler` riding the simulation's event queue and
:meth:`repro.obs.Timeline.summary`.  Series are keyed by registry
instrument name.
"""

from __future__ import annotations

import pytest

from repro.netsim.events import EventQueue
from repro.obs import MetricRegistry, Timeline, TimelineSampler


def _timeline(values) -> Timeline:
    timeline = Timeline(period_s=1.0)
    for t, value in enumerate(values):
        timeline.record_epoch(float(t), {"x": value})
    return timeline


class TestSeries:
    def test_statistics(self):
        timeline = _timeline([1.0, 3.0, 2.0])
        stats = timeline.summary()["x"]
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["last"] == 2.0
        assert len(timeline) == 3

    def test_percentile(self):
        stats = _timeline([float(v) for v in range(1, 101)]).summary()["x"]
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["p50"] == pytest.approx(50.5)
        assert stats["p99"] == pytest.approx(99.01)


class TestSampler:
    @staticmethod
    def clock_sampler(queue: EventQueue, period_s: float = 1.0) -> TimelineSampler:
        registry = MetricRegistry()
        registry.gauge("now").set_function(lambda: queue.now)
        return TimelineSampler(registry, period_s=period_s)

    def test_periodic_sampling(self):
        queue = EventQueue()
        registry = MetricRegistry()
        count = registry.counter("count")

        def bump():
            count.inc()
            if queue.now < 4.0:
                queue.schedule_in(1.0, bump)

        sampler = TimelineSampler(registry, period_s=1.0)
        sampler.attach(queue, horizon_s=5.0)
        queue.schedule(0.5, bump)
        queue.run_until(10.0)
        assert sampler.timeline.epochs == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert sampler.timeline.column("count") == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            self.clock_sampler(EventQueue(), period_s=0.0)

    def test_summary(self):
        queue = EventQueue()
        sampler = self.clock_sampler(queue)
        sampler.attach(queue, horizon_s=3.0)
        queue.run_until(3.0)
        summary = sampler.timeline.summary()
        assert summary["now"]["min"] == 0.0
        assert summary["now"]["max"] == 3.0
        assert summary["now"]["p50"] == 1.5
        assert summary["now"]["p99"] == pytest.approx(2.97)


class TestWatchSwitch:
    @staticmethod
    def announced_switch():
        from repro.core import SilkRoadConfig, SilkRoadSwitch
        from repro.netsim import make_cluster

        cluster = make_cluster(num_vips=1, dips_per_vip=2)
        switch = SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=100))
        switch.announce_vip(cluster.vips[0], cluster.services[0].dips)
        return cluster, switch

    def test_standard_probes(self):
        _cluster, switch = self.announced_switch()
        sampler = TimelineSampler(switch.metrics, period_s=1.0)
        sampler.sample(switch.queue.now)
        series = sampler.timeline.summary()
        for name in (
            "conn_table.occupancy",
            "conn_table.load_factor",
            "switch.pending_connections",
            "switch_cpu.backlog",
            "switch.sram_bytes",
        ):
            assert name in series
        assert series["conn_table.occupancy"]["last"] == 0.0
        assert series["switch.sram_bytes"]["last"] > 0.0

    def test_probes_fed_from_registry(self):
        """The sampled series read the switch's metric registry, so they
        track the registry gauges exactly."""
        from repro.netsim.flows import Connection
        from repro.netsim.packet import five_tuple_for

        cluster, switch = self.announced_switch()
        sampler = TimelineSampler(switch.metrics, period_s=1.0)
        conn = Connection(
            conn_id=1,
            key=five_tuple_for(cluster.vips[0], src_ip=9, src_port=1024).key_bytes(),
            vip=cluster.vips[0],
            start=0.0,
            duration=10.0,
        )
        switch.on_connection_arrival(conn)
        sampler.sample(switch.queue.now)
        series = sampler.timeline.summary()
        assert series["switch.pending_connections"]["last"] == 1.0
        assert (
            series["conn_table.occupancy"]["last"]
            == switch.metrics.get("conn_table.occupancy").value
        )
