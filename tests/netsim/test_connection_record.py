"""The connection as a compact record: its cost and semantics, as counts.

A simulated connection is held by the host three ways — a row of the
generated workload's columns, the record a replay builds from that row
(its key bytes, not a 5-tuple, and the VIP record it points at), and the
switch's resident entry — and every one is meant to stay as small as the
facts it carries.  The tests here pin that: no instance ``__dict__``
anywhere, host bytes *and collector-tracked containers* per connection
under a ceiling, a decision log that lives on the record until a remap,
one byte-hash pass per *workload* (not per replay), addresses that hash
like their field tuple in every process, and a profile side cache that
holds in-flight keys only.
"""

from __future__ import annotations

import copy
import gc
import os
import pickle
import subprocess
import sys
import tracemalloc

import pytest

from repro.api import SilkRoadConfig, SilkRoadSwitch
from repro.asicsim import hashing
from repro.asicsim.batch import PacketBatch
from repro.experiments.common import build_workload
from repro.netsim.arrivals import ArrivalGenerator, VipWorkload
from repro.netsim.flows import Connection
from repro.netsim.packet import DirectIP, FiveTuple, VirtualIP, five_tuple_for
from repro.serve.source import StreamingFlowSource

VIP = VirtualIP.parse("20.0.0.1:80")
DIP = DirectIP.parse("10.0.0.2:8080")

#: ``pop_steady``'s shape (build_workload(50, scale=0.5, seed=16,
#: horizon_s=120), 35,297 connections) scaled to ~3.5 K connections.
SHAPE = dict(updates_per_min=50.0, scale=0.05, seed=16, horizon_s=120.0)


def make_conn(conn_id: int = 1) -> Connection:
    return Connection(
        conn_id=conn_id,
        key=five_tuple_for(VIP, src_ip=0x0A80_0000 + conn_id, src_port=1024).key_bytes(),
        vip=VIP,
        start=0.0,
        duration=10.0,
        rate_bps=1e6,
    )


def make_switch() -> SilkRoadSwitch:
    return SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=300_000))


def key_slots_set(conn: Connection) -> bool:
    """Whether ``key_hash`` is cached, read without deriving it."""
    try:
        object.__getattribute__(conn, "key_hash")
    except AttributeError:
        return False
    return True


# -- no instance dict ------------------------------------------------------


def test_records_have_no_instance_dict():
    for record in (make_conn(), VIP, DIP, make_conn().five_tuple):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(AttributeError):
        make_conn().scratch = 1


def test_no_instance_dict_after_batch_scalar_arrival_or_replay():
    conns = [make_conn(i) for i in range(8)]
    PacketBatch.from_connections(conns)
    switch = make_switch()
    switch.announce_vip(VIP, [DIP])
    arrived = make_conn(99)
    switch.on_connection_arrival(arrived)
    assert arrived.decisions
    workload = build_workload(50.0, scale=0.02, seed=16, horizon_s=10.0)
    _report, replayed, _lb = workload.replay(make_switch)
    for conn in [*conns, arrived, *workload.connections, *replayed]:
        assert not hasattr(conn, "__dict__")
        assert key_slots_set(conn)


def test_key_and_hash_fill_on_first_read():
    conn = make_conn()
    assert not key_slots_set(conn)
    before = hashing.BASE_HASH_CALLS
    assert conn.key == conn.five_tuple.key_bytes()
    assert conn.key_hash == hashing.base_hash(conn.key)
    assert conn.key is conn.key and key_slots_set(conn)
    conn.key_hash, conn.key_hash
    assert hashing.BASE_HASH_CALLS - before == 2  # the read and the check
    with pytest.raises(AttributeError):
        conn.no_such_field


# -- host bytes per connection ---------------------------------------------


def test_host_bytes_per_connection():
    """``tracemalloc`` bytes per generated connection (a row of columns),
    and per generated connection plus one replay's (hashed, once-decided)
    record."""
    build_workload(50.0, scale=0.05, seed=3, horizon_s=5.0)  # lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        workload = build_workload(**SHAPE)
        generated = tracemalloc.get_traced_memory()[0]
        report, replayed, switch = workload.replay(make_switch)
        del report, switch
        gc.collect()
        with_copy = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(workload.connections)
    assert 3_000 < n == len(replayed) < 4_000
    assert all(len(c.decisions) == 1 for c in replayed[:100])
    # ~51 and ~347 here; ~352 and ~570 when a workload was a record list.
    assert generated / n <= 80, generated / n
    assert with_copy / n <= 400, with_copy / n


def test_tracked_containers_per_connection():
    """Objects the cyclic collector tracks — and re-walks at every later
    collection — per generated connection (none: the workload is a few
    arrays) and per replayed record (the record alone: a once-decided
    connection owns no list and no ``(t, dip)`` tuple).  The cluster and
    the update records are inside the first count."""
    warm = build_workload(50.0, scale=0.02, seed=16, horizon_s=10.0)
    warm.replay(make_switch)  # lazy imports, caches
    del warm
    gc.collect()
    before = len(gc.get_objects())
    workload = build_workload(**SHAPE)
    gc.collect()
    generated = len(gc.get_objects())
    report, replayed, switch = workload.replay(make_switch)
    del report, switch
    gc.collect()
    with_copy = len(gc.get_objects())
    n = len(workload.connections)
    assert 3_000 < n == len(replayed) < 4_000
    # ~0.05 here, all of it the cluster and the update records; 2.05 when
    # a workload was a record list (each record and its 5-tuple).
    assert (generated - before) / n <= 0.1
    assert (with_copy - generated) / n <= 1.2  # parent 3.00
    once_decided = [c for c in replayed if not c.remapped]
    assert len(once_decided) > 0.99 * n
    assert not any(
        type(referent) in (list, tuple)
        for conn in once_decided[:200]
        for referent in gc.get_referents(conn)
    )


# -- the decision log ------------------------------------------------------

DIP_B = DirectIP.parse("10.0.0.3:8080")


def decision_facts(conn: Connection) -> tuple:
    return (
        conn.decisions, conn.current_dip, conn.distinct_dips(),
        conn.remapped, conn.pcc_violated, conn.ever_dropped,
    )


def test_decision_log_over_zero_one_and_more_decisions():
    conn = make_conn()
    assert decision_facts(conn) == ([], None, [], False, False, False)
    conn.record_decision(1.0, DIP)
    assert decision_facts(conn) == ([(1.0, DIP)], DIP, [DIP], False, False, False)
    conn.record_decision(2.0, DIP_B)
    assert decision_facts(conn) == (
        [(1.0, DIP), (2.0, DIP_B)], DIP_B, [DIP, DIP_B], True, True, False
    )
    conn.record_decision(3.0, None)
    conn.record_decision(4.0, DIP)
    assert decision_facts(conn) == (
        [(1.0, DIP), (2.0, DIP_B), (3.0, None), (4.0, DIP)],
        DIP, [DIP, DIP_B, DIP], True, True, True,
    )
    conn.broken_by_removal = True
    assert conn.remapped and not conn.pcc_violated


def test_a_repeated_dip_is_a_no_op_inline_and_in_the_list():
    conn = make_conn()
    conn.record_decision(1.0, DIP)
    conn.record_decision(1.5, DIP)  # inline stage
    assert conn.decisions == [(1.0, DIP)]
    conn.record_decision(2.0, DIP_B)
    conn.record_decision(2.5, DIP_B)  # list stage
    assert conn.decisions == [(1.0, DIP), (2.0, DIP_B)]
    conn.record_decision(3.0, DIP)  # back to an earlier DIP: a new decision
    assert conn.decisions == [(1.0, DIP), (2.0, DIP_B), (3.0, DIP)]


def test_blackholed_is_a_first_decision_like_any_other():
    conn = make_conn()
    conn.record_decision(0.0, None)
    assert decision_facts(conn) == ([(0.0, None)], None, [], False, False, True)
    conn.record_decision(0.5, None)  # still nowhere: no new decision
    assert conn.decisions == [(0.0, None)]
    conn.record_decision(1.0, DIP)  # one DIP ever: dropped, never remapped
    assert decision_facts(conn) == (
        [(0.0, None), (1.0, DIP)], DIP, [DIP], False, False, True
    )
    # A decision at t = 0.0 is a decision: "none yet" is not spelt falsy.
    zero = make_conn()
    zero.record_decision(0.0, DIP)
    zero.record_decision(0.0, DIP_B)
    assert zero.decisions == [(0.0, DIP), (0.0, DIP_B)]


def test_decisions_is_a_view_that_aliases_nothing():
    conn = make_conn()
    for stage in ([], [(1.0, DIP)], [(1.0, DIP), (2.0, DIP_B)]):
        if stage:
            conn.record_decision(*stage[-1])
        view = conn.decisions
        assert view == stage and view is not conn.decisions
        view.append((9.0, None))
        view.clear()
        assert conn.decisions == stage
    with pytest.raises(AttributeError):
        conn.decisions = []
    with pytest.raises(AttributeError):
        conn.current_dip = DIP
    with pytest.raises(TypeError):
        Connection(1, conn.key, VIP, 0.0, 1.0, decisions=[])


def test_a_twice_decided_record_round_trips():
    conn = make_conn()
    conn.record_decision(1.0, DIP)
    conn.record_decision(2.0, DIP_B)
    for clone in (copy.copy(conn), pickle.loads(pickle.dumps(conn))):
        assert decision_facts(clone) == decision_facts(conn)
        clone.record_decision(3.0, DIP_B)  # no-op at the list stage
        assert clone.decisions == conn.decisions
    undecided = pickle.loads(pickle.dumps(make_conn()))
    undecided.record_decision(0.0, DIP)
    assert undecided.decisions == [(0.0, DIP)]
    unpickled = pickle.loads(pickle.dumps(conn))
    unpickled.record_decision(3.0, DIP)
    assert conn.decisions == [(1.0, DIP), (2.0, DIP_B)]  # a deep copy's log


# -- one hash pass per workload --------------------------------------------


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_workload_is_byte_hashed_once_not_once_per_replay(batched):
    start = hashing.BASE_HASH_CALLS
    workload = build_workload(**SHAPE)
    assert hashing.BASE_HASH_CALLS == start  # not in set-up
    assert not any(key_slots_set(c) for c in workload.connections)
    workload.replay(make_switch, batched=batched)
    first = hashing.BASE_HASH_CALLS
    workload.replay(make_switch, batched=batched)
    workload.replay(make_switch, batched=not batched)
    assert first - start == len(workload.connections)
    assert hashing.BASE_HASH_CALLS - first == 0


def test_batch_hashes_what_is_unhashed_and_only_that():
    conns = [make_conn(i) for i in range(6)]
    for conn in conns[:2]:
        conn.key_hash
    before = hashing.BASE_HASH_CALLS
    batch = PacketBatch.from_connections(conns)
    assert hashing.BASE_HASH_CALLS - before == 4
    assert batch.keys == [c.key for c in conns]
    assert batch.base_hashes == [hashing.base_hash(c.key) for c in conns]
    assert all(key_slots_set(c) for c in conns)
    before = hashing.BASE_HASH_CALLS
    assert PacketBatch.from_connections(conns).base_hashes == batch.base_hashes
    assert hashing.BASE_HASH_CALLS == before


def test_a_streamed_window_is_hashed_once_in_bulk_at_the_source():
    workloads = [VipWorkload(vip=VIP, new_conns_per_min=6000.0)]
    source = StreamingFlowSource(workloads, seed=16)
    before = hashing.BASE_HASH_CALLS
    conns = source.draw(0.0, 5.0)
    assert len(conns) > 300 and all(key_slots_set(c) for c in conns)
    assert hashing.BASE_HASH_CALLS - before == len(conns)
    batch = PacketBatch.from_connections(conns)
    assert hashing.BASE_HASH_CALLS - before == len(conns)
    assert batch.keys == [c.five_tuple.key_bytes() for c in conns]
    assert batch.base_hashes == [c.key_hash for c in conns]
    # The generator itself stays lazy: set-up hashes nothing.
    before = hashing.BASE_HASH_CALLS
    cold = ArrivalGenerator(seed=16).window(workloads, 0.0, 5.0)
    assert not any(key_slots_set(c) for c in cold)
    assert hashing.BASE_HASH_CALLS == before


# -- records(), copy, pickle -----------------------------------------------


def test_records_share_the_immutable_facts_and_nothing_mutable():
    columns = ArrivalGenerator(seed=16).window(
        [VipWorkload(vip=VIP, new_conns_per_min=600.0)], 0.0, 2.0
    )
    first = columns.records()
    conn = first[0]
    conn.record_decision(0.0, DIP)
    conn.broken_by_removal = True
    clone = columns.records()[0]
    assert clone is not conn
    assert clone.vip is conn.vip and clone.five_tuple == conn.five_tuple
    assert clone.key == conn.key and clone.key_hash is conn.key_hash
    assert (clone.conn_id, clone.start, clone.duration, clone.rate_bps) == (
        conn.conn_id, conn.start, conn.duration, conn.rate_bps
    )
    assert clone.decisions == [] and clone.decisions is not conn.decisions
    assert clone.broken_by_removal is False
    clone.record_decision(1.0, None)
    assert conn.decisions == [(0.0, DIP)]


@pytest.mark.parametrize("hashed", [False, True], ids=["unset", "set"])
def test_copy_and_pickle_round_trip(hashed):
    conn = make_conn()
    conn.record_decision(0.0, DIP)
    if hashed:
        conn.key_hash
    for clone in (copy.copy(conn), pickle.loads(pickle.dumps(conn))):
        assert not hasattr(clone, "__dict__")
        assert clone.five_tuple == conn.five_tuple and clone.vip == conn.vip
        assert type(clone.five_tuple) is FiveTuple and type(clone.vip) is VirtualIP
        assert clone.decisions == [(0.0, DIP)]
        assert type(clone.decisions[0][1]) is DirectIP
        assert (clone.key, clone.key_hash) == (conn.key, conn.key_hash)


def test_copy_and_pickle_do_not_hash_an_unread_key():
    fresh = make_conn()
    before = hashing.BASE_HASH_CALLS
    clones = [copy.copy(fresh), pickle.loads(pickle.dumps(fresh))]
    assert hashing.BASE_HASH_CALLS == before
    assert not key_slots_set(fresh)
    for clone in clones:
        assert not key_slots_set(clone)
        assert clone.key_hash == fresh.key_hash == hashing.base_hash(fresh.key)
    hashed = make_conn(2)
    hashed.key_hash = 12345  # a set hash is carried, never re-derived
    for clone in (copy.copy(hashed), pickle.loads(pickle.dumps(hashed))):
        assert key_slots_set(clone) and clone.key_hash == 12345


# -- tuple-record addresses ------------------------------------------------


def test_addresses_hash_and_compare_as_their_field_tuples():
    vip = VirtualIP(ip=0x14000001, port=80, proto=17, v6=False)
    dip = DirectIP(ip=0x14000001, port=80)
    flow = FiveTuple(src_ip=1, src_port=2, dst_ip=3, dst_port=4)
    assert hash(vip) == hash((0x14000001, 80, 17, False))
    assert hash(dip) == hash((0x14000001, 80, False))
    assert hash(flow) == hash((1, 2, 3, 4, 6, False))
    assert vip == VirtualIP(0x14000001, 80, 17) and dip == DirectIP(0x14000001, 80)
    # Equal leading fields, different kinds of address: never equal.
    assert vip != dip and dip != vip
    assert len({vip: 1, dip: 2}) == 2
    assert dip != None  # noqa: E711 - the hot-path comparison, spelled out
    assert repr(dip) == "DirectIP(ip=335544321, port=80, v6=False)"
    assert str(vip) == str(dip) == "20.0.0.1:80"


_ORDER_SCRIPT = """
from repro.netsim.packet import DirectIP
print([str(d) for d in {DirectIP(ip=0x0A000000 + 7919 * i, port=20 + i) for i in range(64)}])
"""


def test_set_order_of_addresses_ignores_the_hash_seed():
    outputs = []
    for hashseed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT],
                env=env, check=True, capture_output=True, text=True, timeout=60,
            ).stdout
        )
    assert outputs[0] == outputs[1] and outputs[0].count(":") == 64


# -- profile side cache ----------------------------------------------------


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_profile_side_cache_holds_in_flight_keys_only(batched):
    workload = build_workload(**SHAPE)
    _report, conns, switch = workload.replay(make_switch, batched=batched, batch_size=256)
    table = switch.conn_table
    assert len(table) > 500  # residents: their profiles ride on the Slots
    assert table._profile_cache.keys().isdisjoint(c.key for c in conns if c.key in table)
    # Parent: every key ever probed, up to the 16,384-entry bound.
    assert len(table._profile_cache) <= switch.pending_connections() + 256
