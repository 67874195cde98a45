"""Connection arrival processes.

New connections towards a VIP are modelled as a Poisson process with a
configurable per-minute rate; the paper's PoP trace has an average of
18.7 K new connections per minute per VIP (§3.2) and a cluster-level peak of
2.77 M new connections per minute per ToR (§6).  Figure 8 shows per-VIP
rates spanning 1 K to >50 M per minute, so rates here are free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..asicsim.hashing import base_hash_many
from .flows import Connection, DurationModel, HADOOP
from .packet import IPV4_KEY_BYTES, IPV6_KEY_BYTES, TupleFactory, VirtualIP


@dataclass(frozen=True)
class VipWorkload:
    """Traffic description for one VIP."""

    vip: VirtualIP
    new_conns_per_min: float
    duration_model: DurationModel = HADOOP
    rate_bps: float = 19.6e6 / 18.7e3 * 60  # per-connection share of 19.6 Mb/s

    def arrivals_per_second(self) -> float:
        return self.new_conns_per_min / 60.0


class ConnectionColumns(Sequence[Connection]):
    """The connections of one window as columns, sorted by start time.

    Row ``i`` is one connection: ``ids[i]``, ``starts[i]``,
    ``durations[i]``, the VIP (and per-connection rate) of workload
    ``vip_index[i]``, and its match-key bytes ``keys[i]`` (a void array
    as wide as the widest key in the window; a narrower IPv4 key is
    zero-padded and trimmed on the way out).  No ``Connection`` exists
    until one is asked for: :meth:`records` builds a replay's records in
    one pass, and indexing or iterating builds them on demand — a new
    record, with an empty decision log, on every read.

    Base hashes are derived once per columns object, in one bulk pass at
    the first :meth:`records` call, and kept here: every later replay's
    records share them, so a workload is byte-hashed once however often
    it is replayed.
    """

    __slots__ = ("ids", "starts", "durations", "vip_index", "keys",
                 "_vips", "_rates", "_widths", "_hashes")

    def __init__(self, ids, starts, durations, vip_index, keys,
                 workloads: Sequence[VipWorkload]) -> None:
        self.ids: np.ndarray = ids
        self.starts: np.ndarray = starts
        self.durations: np.ndarray = durations
        self.vip_index: np.ndarray = vip_index
        self.keys: np.ndarray = keys
        self._vips = tuple(w.vip for w in workloads)
        self._rates = tuple(w.rate_bps for w in workloads)
        #: Per-workload key width, or ``None`` when every key fills a row.
        widths = tuple(_key_width(vip) for vip in self._vips)
        self._widths = widths if any(w < keys.itemsize for w in widths) else None
        self._hashes: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.ids)

    def _key_bytes(self) -> List[bytes]:
        keys = self.keys.tolist()
        if self._widths is None:
            return keys
        widths = map(self._widths.__getitem__, self.vip_index.tolist())
        return [key[:width] for key, width in zip(keys, widths)]

    def _build(self, keys: Optional[List[bytes]] = None) -> List[Connection]:
        """These rows as new records, base-hashed if the hashes exist."""
        index = self.vip_index.tolist()
        columns = [
            self.ids.tolist(),
            self._key_bytes() if keys is None else keys,
            map(self._vips.__getitem__, index),
            self.starts.tolist(),
            self.durations.tolist(),
            map(self._rates.__getitem__, index),
        ]
        if self._hashes is not None:
            columns.append(self._hashes)
        return list(map(Connection, *columns))

    def records(self) -> List[Connection]:
        """Every connection as a new, base-hashed record, in start order."""
        keys = self._key_bytes()
        if self._hashes is None:
            self._hashes = base_hash_many(keys)
        return self._build(keys)

    def _rows(self, rows: slice) -> "ConnectionColumns":
        part = ConnectionColumns.__new__(ConnectionColumns)
        for name in ("ids", "starts", "durations", "vip_index", "keys"):
            setattr(part, name, getattr(self, name)[rows])
        part._vips, part._rates, part._widths = self._vips, self._rates, self._widths
        part._hashes = None if self._hashes is None else self._hashes[rows]
        return part

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._rows(i)._build()
        n = len(self)
        if not -n <= i < n:
            raise IndexError("connection index out of range")
        i %= n
        return self._rows(slice(i, i + 1))._build()[0]

    def __iter__(self):
        return iter(self._build())


def _key_width(vip: VirtualIP) -> int:
    return IPV6_KEY_BYTES if vip.v6 else IPV4_KEY_BYTES


class ArrivalGenerator:
    """Generates the connections of a set of VIP workloads, window by window.

    A window is drawn up-front as sorted columns (:class:`ConnectionColumns`),
    which is both faster and simpler than interleaved generation for the
    flow-level experiments, and guarantees the same workload across the
    systems being compared (SilkRoad, Duet, SLB) in one experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._tuples = TupleFactory()
        self._next_id = 0

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def window(
        self, workloads: Sequence[VipWorkload], t0: float, t1: float
    ) -> ConnectionColumns:
        """All connections arriving in ``[t0, t1)``, sorted by start time.

        VIPs draw from the one RNG in list order, so the same sequence of
        windows over the same workloads yields the same connections.  Ties
        in start time keep VIP list order, then id order.
        """
        if t1 <= t0:
            raise ValueError("window must have positive span")
        workloads = list(workloads)
        width = max((_key_width(w.vip) for w in workloads), default=IPV4_KEY_BYTES)
        ids, starts, durations, vip_index, keys = [], [], [], [], []
        for index, workload in enumerate(workloads):
            rate = workload.arrivals_per_second()
            if rate <= 0:
                continue
            # Draw the count then order-statistics the arrival times: exact
            # Poisson process, vectorized.
            count = int(self._rng.poisson(rate * (t1 - t0)))
            if count == 0:
                continue
            times = self._rng.uniform(t0, t1, size=count)
            times.sort()
            starts.append(times)
            durations.append(workload.duration_model.sample(self._rng, size=count))
            first_id = self._next_id
            self._next_id = first_id + count
            ids.append(np.arange(first_id, first_id + count, dtype=np.int64))
            vip_index.append(np.full(count, index, dtype=np.int32))
            packed = self._tuples.take_keys(workload.vip, count)
            if packed.itemsize < width:
                padded = np.zeros((count, width), dtype=np.uint8)
                padded[:, : packed.itemsize] = packed.view(np.uint8).reshape(count, -1)
                packed = padded.view(f"V{width}").ravel()
            keys.append(packed)
        if not ids:
            empty = np.empty(0)
            return ConnectionColumns(
                empty.astype(np.int64), empty, empty, empty.astype(np.int32),
                np.empty(0, dtype=f"V{width}"), workloads,
            )
        start_column = np.concatenate(starts)
        # Stable: equal starts keep VIP order, as the records' sort did.
        order = np.argsort(start_column, kind="stable")
        return ConnectionColumns(
            np.concatenate(ids)[order],
            start_column[order],
            np.concatenate(durations)[order],
            np.concatenate(vip_index)[order],
            np.concatenate(keys)[order],
            workloads,
        )

    def generate(
        self,
        workloads: List[VipWorkload],
        horizon_s: float,
        warmup_s: float = 0.0,
    ) -> ConnectionColumns:
        """Generate all connections arriving in ``[-warmup, horizon)``.

        A warm-up period lets experiments start with established connections
        already resident (as a real switch would), matching the paper's
        replay methodology.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        return self.window(workloads, -warmup_s, horizon_s)


def uniform_vip_workloads(
    vips: List[VirtualIP],
    total_new_conns_per_min: float,
    duration_model: DurationModel = HADOOP,
    rate_bps_per_conn: Optional[float] = None,
) -> List[VipWorkload]:
    """Split an aggregate arrival rate evenly across VIPs."""
    if not vips:
        return []
    per_vip = total_new_conns_per_min / len(vips)
    kwargs = {}
    if rate_bps_per_conn is not None:
        kwargs["rate_bps"] = rate_bps_per_conn
    return [
        VipWorkload(
            vip=vip,
            new_conns_per_min=per_vip,
            duration_model=duration_model,
            **kwargs,
        )
        for vip in vips
    ]
