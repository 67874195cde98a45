"""One store per count: every public count is a view of a registry instrument.

The instrumented components count into their :class:`Scope` only — the one
they are handed, or a private registry's when built bare — and the count
attributes they expose are read-only ``int`` views of those instruments.
Each case below builds its component both ways, runs the same handful of
operations on both, and checks every view against the instrument it reads.
"""

from __future__ import annotations

import pytest

from repro.asicsim.cuckoo import CuckooTable, TableFull
from repro.asicsim.learning_filter import LearnBatch, LearnEvent, LearningFilter
from repro.asicsim.meters import MeterBank, MeterConfig
from repro.core import SilkRoadConfig, SilkRoadSwitch, silkroad
from repro.core.conn_table import ConnTable
from repro.core.control_plane import SwitchCpu
from repro.core.pcc_update import UpdateCoordinator
from repro.core.transit_table import TransitTable
from repro.faults.chaos import run_chaos
from repro.netsim import FlowSimulator
from repro.netsim.events import EventQueue
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, VirtualIP
from repro.netsim.updates import UpdateEvent, UpdateKind
from repro.obs import MetricRegistry

VIP = VirtualIP.parse("20.0.0.1:80")
DIP = DirectIP.parse("10.0.0.9:80")


def _keys(count, tag=b"k"):
    return [tag + i.to_bytes(4, "big") for i in range(count)]


def _fill_and_probe(table):
    # Narrow digests: twins relocate on insert, strangers hit falsely.
    for key in _keys(40):
        try:
            table.insert(key, 1)
        except TableFull:
            pass
    for key in _keys(200, b"probe"):
        table.lookup(key)
    return table


def _cuckoo(metrics):
    return _fill_and_probe(CuckooTable(
        buckets_per_stage=4, ways=4, stages=4, digest_bits=2,
        fast_fail_load=1.0, metrics=metrics,
    ))


def _conn_table(metrics):
    config = SilkRoadConfig(conn_table_capacity=64, digest_bits=2)
    return _fill_and_probe(ConnTable(config, metrics=metrics))


def _learning_filter(metrics):
    lf = LearningFilter(capacity=2, timeout=1.0, metrics=metrics)
    lf.offer(b"a", 0.0)
    lf.offer(b"a", 0.0)  # deduplicated
    lf.offer(b"b", 0.0)  # capacity 2: flushes full
    lf.offer(b"c", 1.0)
    assert lf.poll(2.0) is not None  # timeout
    lf.offer(b"d", 3.0)
    assert lf.flush(3.0) is not None  # forced
    return lf


def _switch_cpu(metrics):
    def batch(keys, at):
        events = [LearnEvent(key=k, metadata=(), first_seen=at) for k in keys]
        return LearnBatch(events=events, flushed_at=at, reason="timeout")

    queue = EventQueue()
    cpu = SwitchCpu(
        queue, 1000.0, lambda key, meta: None, metrics=metrics,
        max_backlog=4, retry_limit=1, retry_backoff_s=1e-4,
    )
    faulty = {b"retry-once": 1, b"never-acks": 99}

    def write_fault(key):
        left = faulty.get(key, 0)
        faulty[key] = left - 1
        return left > 0

    cpu.write_fault = write_fault
    first = [b"a", b"retry-once", b"never-acks", b"b", b"shed-me"]
    queue.schedule(0.0, lambda: cpu.submit_batch(batch(first, 0.0)))
    queue.schedule(0.0015, lambda: cpu.stall(0.002))
    queue.schedule(0.02, lambda: cpu.submit_batch(batch([b"c", b"d"], 0.02)))
    queue.schedule(0.0215, lambda: cpu.crash(0.005))
    queue.run()
    return cpu


def _transit_table(metrics):
    tt = TransitTable(size_bytes=1, metrics=metrics)  # 8 cells: e hits falsely
    first, second = tt.update_started(), tt.update_started()
    tt.mark(b"a", None, first)
    tt.mark(b"b", None, second)
    tt.check(b"a")
    assert tt.check(b"e").false_positive
    tt.update_finished(first)  # rebuild: evicts a, keeps b
    tt.update_finished(second)  # last one out: clear
    return tt


class _Timer:
    def __init__(self, action):
        self.action = action

    def cancel(self):
        pass


def _coordinator(metrics):
    timers = []

    def schedule(delay, action):
        timers.append(_Timer(action))
        return timers[-1]

    coord = UpdateCoordinator(
        pending_keys=lambda vip: {b"stuck-1", b"stuck-2"},
        execute=lambda event: None,
        finish=lambda vip: None,
        mark=lambda key: None,
        now=lambda: 0.0,
        metrics=metrics,
        step_deadline_s=1.0,
        schedule=schedule,
    )
    coord.request(UpdateEvent(0.0, VIP, UpdateKind.REMOVE, DIP))
    timers[-1].action()  # step-1 watchdog: forced past both keys
    return coord


def _meters(metrics):
    bank = MeterBank(metrics=metrics)
    bank.install(VIP, MeterConfig(1e6, 1e6, 1500, 1500))
    bank.mark(VIP, 100, 1.0)
    bank.mark(VIP, 100, 0.5)  # the clock ran backwards
    return bank


#: run(metrics) -> the component after a handful of operations, and the
#: instrument each of its public count views reads.
CASES = {
    _cuckoo: {
        "total_lookups": "lookups_total",
        "false_positive_lookups": "lookup_false_positives_total",
        "collision_relocations": "collision_relocations_total",
    },
    _conn_table: {"false_positive_lookups": "lookup_false_positives_total"},
    _learning_filter: {
        "deduplicated": "dedup_hits_total",
        "flushes_full": "flushes_full_total",
        "flushes_timeout": "flushes_timeout_total",
        "flushes_forced": "flushes_forced_total",
    },
    _switch_cpu: {
        "submitted": "jobs_submitted_total",
        "completed": "installs_total",
        "batches": "batches_total",
        "shed": "jobs_shed_total",
        "lost": "jobs_lost_total",
        "retries": "install_retries_total",
        "install_failures": "install_failures_total",
        "crashes": "crashes_total",
        "stalls": "stalls_total",
    },
    _transit_table: {
        "clears": "clears_total",
        "rebuilds": "rebuilds_total",
        "evicted_marks": "evicted_marks_total",
        "false_positives": "false_positives_total",
    },
    _coordinator: {
        "updates_requested": "updates_requested_total",
        "updates_completed": "updates_completed_total",
        "watchdog_forced_steps": "watchdog_forced_steps_total",
        "at_risk_reclassified": "at_risk_keys_total",
    },
    _meters: {"time_skew_events": "meter_time_skew_total"},
}


@pytest.mark.parametrize("run", CASES, ids=lambda run: run.__name__.strip("_"))
def test_every_count_view_reads_its_instrument(run):
    registry = MetricRegistry()
    scoped, bare = run(registry.scope("c")), run(None)
    for view, instrument in CASES[run].items():
        value = getattr(scoped, view)
        assert type(value) is int and value > 0, (view, value)
        assert value == registry.get(f"c.{instrument}").value, view
        # A bare component counts the same way, into a registry of its own.
        assert getattr(bare, view) == value, view
        with pytest.raises(AttributeError):
            setattr(scoped, view, 0)


def test_counts_survive_a_rebind(vip, dips, tuples, monkeypatch):
    """``bind()`` builds a new ``SwitchCpu`` on the switch's one scope: what
    the first CPU installed and shed still counts after the switch moves
    from its private queue to a simulator's."""
    monkeypatch.setattr(silkroad, "LEARNING_FILTER_CAPACITY", 8)
    config = SilkRoadConfig(
        conn_table_capacity=1000, insertion_rate_per_s=1000.0, cpu_max_backlog=4,
    )
    switch = SilkRoadSwitch(config)
    switch.announce_vip(vip, dips)
    for i in range(8):  # one full batch: the CPU takes 4 and sheds the rest
        switch.on_connection_arrival(Connection(
            conn_id=i, key=tuples.next_for(vip).key_bytes(), vip=vip,
            start=0.0, duration=100.0,
        ))
    switch.queue.run_until(0.05)
    first_cpu = switch.cpu
    installed, shed = first_cpu.completed, first_cpu.shed
    assert installed >= 4 and shed >= 4

    FlowSimulator(switch).run([], [], horizon_s=1.0)

    assert switch.cpu is not first_cpu
    metrics = switch.metrics
    assert switch.cpu.completed == metrics.get("switch_cpu.installs_total").value
    assert switch.cpu.completed >= installed
    assert switch.cpu.shed == metrics.get("switch_cpu.jobs_shed_total").value
    assert switch.cpu.shed >= shed
    assert metrics.get("slow_path.relearns_total").value == switch.relearns > 0


def test_switch_counts_view_their_registry_counters():
    """Each ``switch.<name>`` counter has a read-only ``int`` view, ``name``."""
    switch = run_chaos(seed=7, scale=0.05, horizon_s=20.0).switch
    assert switch.connections_seen > 0
    counters = {
        name.removeprefix("switch."): counter
        for name, counter in switch.metrics.instruments()
        if name.startswith("switch.") and counter.kind == "counter"
    }
    assert {"stale_updates", "resumed_connections"} <= counters.keys()
    for name, counter in counters.items():
        value = getattr(switch, name)
        assert type(value) is int and value == counter.value, name
        with pytest.raises(AttributeError):
            setattr(switch, name, 0)
