"""A generated window's columns against the per-record loop they replaced.

``ArrivalGenerator.window`` builds no ``Connection`` and no ``FiveTuple``:
it draws, numbers and packs a window as sorted columns, and records are
built from them only when a replay (or a reader) asks.  The reference
below is the old loop, kept here and nowhere else; every record built from
the columns must equal it field for field — id, key bytes, base hash,
start, duration, VIP, rate — and in order.  Hypothesis (derandomized)
covers equal-start ties across VIPs, IPv6 and mixed v4/v6 windows, the
64,511-port source-IP rollover, and successive windows from one generator
(the serving mode's path, checked through ``StreamingFlowSource.draw``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asicsim.hashing import base_hash
from repro.netsim.arrivals import ArrivalGenerator, VipWorkload
from repro.netsim.flows import CACHE, HADOOP, Connection
from repro.netsim.packet import TupleFactory, VirtualIP
from repro.serve.source import StreamingFlowSource


def reference_windows(seed, workloads, spans):
    """``ArrivalGenerator.window`` over successive ``spans`` of one
    generator, as the per-record loop the columns replaced: the same draws
    in the same order, one ``next_for`` and one ``Connection`` call per
    record, a running id, and a stable sort by start per window."""
    rng = np.random.default_rng(seed)
    tuples = TupleFactory()
    next_id = 0
    windows = []
    for t0, t1 in spans:
        connections = []
        for workload in workloads:
            rate = workload.arrivals_per_second()
            if rate <= 0:
                continue
            count = int(rng.poisson(rate * (t1 - t0)))
            if count == 0:
                continue
            times = rng.uniform(t0, t1, size=count)
            times.sort()
            durations = workload.duration_model.sample(rng, size=count)
            for t, d in zip(times, durations):
                connections.append(
                    Connection(
                        conn_id=next_id,
                        key=tuples.next_for(workload.vip).key_bytes(),
                        vip=workload.vip,
                        start=float(t),
                        duration=float(d),
                        rate_bps=workload.rate_bps,
                    )
                )
                next_id += 1
        connections.sort(key=lambda c: c.start)
        windows.append(connections)
    return windows


FIELDS = ("conn_id", "key", "vip", "start", "duration", "rate_bps")


def assert_same_records(got, want):
    """Field for field and in order, base hash included."""
    assert len(got) == len(want)
    for field in FIELDS:
        assert [getattr(c, field) for c in got] == [getattr(c, field) for c in want], field
    assert [c.key_hash for c in got] == [base_hash(c.key) for c in want]
    assert {type(c.start) for c in got} <= {float} and {type(c.duration) for c in got} <= {float}
    assert all(c.decisions == [] for c in got)


#: VIPs a generated window may mix: IPv4 and IPv6, and a protocol-0 VIP
#: whose keys end in a zero byte (kept when an IPv4 key is padded to the
#: IPv6 width beside a v6 VIP and trimmed on the way out).
VIP_POOL = [
    VirtualIP.parse("20.0.0.1:80"),
    VirtualIP.parse("20.0.0.2:443", proto=17),
    VirtualIP.parse("20.0.0.3:0", proto=0),
    VirtualIP.parse("[2001:db8::1]:443"),
    VirtualIP.parse("[2001:db8::ffff:1]:0", proto=0),
]

#: Window spans.  Four ulps at 1.0 leave four distinct start times, so
#: equal starts across VIPs (the stable-sort ties) are the common case.
SPANS = [4 * 2.0**-52, 0.5, 7.0]


@st.composite
def window_plans(draw):
    """Workloads (VIP, expected arrivals per window, duration model), one
    span length for successive windows, and whether a first window of
    ~64,400 arrivals carries the client counter over the 64,511-port
    source-IP rollover."""
    span = draw(st.sampled_from(SPANS))
    workloads = [
        VipWorkload(
            vip=vip,
            new_conns_per_min=per_window / span * 60.0,
            duration_model=draw(st.sampled_from([HADOOP, CACHE])),
            rate_bps=draw(st.sampled_from([0.0, 5e5])),
        )
        for vip, per_window in draw(
            st.lists(
                st.tuples(st.sampled_from(VIP_POOL), st.sampled_from([0, 1, 5, 40, 300])),
                min_size=1, max_size=4,
            )
        )
    ]
    windows = draw(st.integers(min_value=1, max_value=3))
    spans = [(1.0 + i * span, 1.0 + (i + 1) * span) for i in range(windows)]
    total = sum(w.arrivals_per_second() for w in workloads)
    if total > 0 and draw(st.booleans()):
        spans.insert(0, (1.0 - 64_400 / total, 1.0))
    return draw(st.integers(min_value=0, max_value=2**16)), workloads, spans


class TestColumnsBitIdentity:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(window_plans())
    def test_columns_equal_the_per_record_loop(self, plan):
        seed, workloads, spans = plan
        want = reference_windows(seed, workloads, spans)
        gen = ArrivalGenerator(seed=seed)
        source = StreamingFlowSource(workloads, seed=seed)
        for (t0, t1), expected in zip(spans, want):
            columns = gen.window(workloads, t0, t1)
            assert_same_records(columns.records(), expected)
            assert_same_records(source.draw(t0, t1), expected)
            # The view: iterating, indexing and slicing build the same
            # records, hashed once the columns are.
            assert_same_records(list(columns), expected)
            if expected:
                assert_same_records([columns[-1], columns[0]], [expected[-1], expected[0]])
                assert_same_records(columns[1::2], expected[1::2])
        assert source.total_generated == sum(map(len, want))

    def test_the_plans_reach_ties_ipv6_mixes_and_the_rollover(self):
        """The cases the property is for, each present in one fixed plan."""
        vip4, vip6 = VIP_POOL[0], VIP_POOL[3]
        span = SPANS[0]
        workloads = [
            VipWorkload(vip=vip4, new_conns_per_min=40 / span * 60.0),
            VipWorkload(vip=vip6, new_conns_per_min=40 / span * 60.0),
        ]
        total = sum(w.arrivals_per_second() for w in workloads)
        spans = [(1.0 - 64_400 / total, 1.0), (1.0, 1.0 + span), (1.0 + span, 1.0 + 2 * span)]
        want = reference_windows(5, workloads, spans)
        starts = [c.start for c in want[1]]
        assert len(set(starts)) < len(starts)  # equal starts
        assert {c.vip for c in want[1]} == {vip4, vip6}  # a v4/v6 mix
        ports = [c.five_tuple.src_port for window in want for c in window]
        assert 65_534 in ports and max(c.five_tuple.src_ip for c in want[-1]) > 0x0A80_0000
        gen = ArrivalGenerator(seed=5)
        for (t0, t1), expected in zip(spans, want):
            assert_same_records(gen.window(workloads, t0, t1).records(), expected)
