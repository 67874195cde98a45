"""Connections (flows) and their duration/size models.

The paper's evaluation simulates two workload families from Roy et al.,
"Inside the Social Network's (Datacenter) Network" (SIGCOMM'15):

* **Hadoop-style** traffic with a *median flow duration of 10 seconds* —
  used as the conservative default for the PCC experiments, and
* **cache-style** traffic with a *median flow duration of 4.5 minutes* —
  used to show PCC violations grow with long-lived flows.

Flow durations in data centers are heavy-tailed, so both are modelled as
lognormal distributions parameterized by their median (the paper's quoted
statistic) and a shape parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..asicsim.hashing import base_hash
from .packet import DirectIP, FiveTuple, VirtualIP


@dataclass(frozen=True)
class DurationModel:
    """Lognormal flow-duration model specified by its median.

    ``sigma`` is the lognormal shape; 1.5 gives the heavy tail observed in
    datacenter measurements (p99/median of roughly 30x).
    """

    median_s: float
    sigma: float = 1.5

    def __post_init__(self) -> None:
        if self.median_s <= 0:
            raise ValueError("median must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def mu(self) -> float:
        return math.log(self.median_s)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw flow durations (seconds)."""
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)

    def mean(self) -> float:
        """Analytic mean of the lognormal."""
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def quantile(self, q: float) -> float:
        """Analytic quantile (e.g. ``quantile(0.99)``)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        # Inverse normal CDF via erfinv.
        from scipy.special import erfinv  # local import; scipy is available

        z = math.sqrt(2.0) * erfinv(2.0 * q - 1.0)
        return math.exp(self.mu + self.sigma * z)


#: Hadoop traffic: median flow duration 10 s (§3.2, §6.2 default).
HADOOP = DurationModel(median_s=10.0)

#: Cache traffic: median flow duration 4.5 min (§3.2).
CACHE = DurationModel(median_s=270.0)


@dataclass(eq=False, slots=True, init=False)  # identity equality: connections are stateful objects
class Connection:
    """One L4 connection as the flow-level simulator tracks it.

    ``decisions`` lists every (time, DIP) forwarding decision made for the
    connection's packets; per-connection consistency holds iff all decided
    DIPs are identical.  The paper's conservative assumption — packets
    arrive continuously throughout the flow's lifetime — means any decision
    change within ``[start, end)`` is a PCC violation.

    The record holds the connection's match-key bytes, not a
    :class:`FiveTuple` (``five_tuple`` decodes one from the key on read).
    ``decisions`` is a view, built on each read.  The first decision rides
    on the record itself (two slots) and a list exists only from the second
    *distinct* decision on — a remap, rare by the paper's own contract — so
    a once-decided connection costs the host, and the cyclic collector that
    re-walks every surviving container, no list and no tuple.
    """

    conn_id: int
    #: Canonical match-key bytes (13 B IPv4 / 37 B IPv6), and their base
    #: hash.  Every hash consumer (ConnTable stages, digests, TransitTable
    #: Bloom ways, DIP selection) derives from ``key_hash`` with seeded
    #: integer mixing, so the simulator performs exactly one byte pass per
    #: key no matter how many packets, events or replays touch it.  A
    #: record built without ``key_hash`` derives it on first read
    #: (``__getattr__``); every later read is a plain slot load.
    key: bytes = field(repr=False)
    vip: VirtualIP
    start: float
    duration: float
    rate_bps: float = 0.0
    #: Set when the connection's own DIP was taken down while it was active.
    #: Such connections are broken by the operational change itself, not by
    #: the load balancer, so PCC metrics exclude them (the paper counts
    #: connections the *load balancer* re-hashed to a different live DIP).
    broken_by_removal: bool = False
    key_hash: int = field(repr=False)
    #: The decision log: the first decision inline (``_first_t is None``
    #: spells "none yet"), and every decision — the first included — in
    #: ``_log`` once a second distinct one arrives.
    _first_t: Optional[float] = None
    _first_dip: Optional[DirectIP] = None
    _log: Optional[List[Tuple[float, Optional[DirectIP]]]] = None

    def __init__(
        self,
        conn_id: int,
        key: bytes,
        vip: VirtualIP,
        start: float,
        duration: float,
        rate_bps: float = 0.0,
        key_hash: Optional[int] = None,
    ) -> None:
        self.conn_id = conn_id
        self.key = key
        self.vip = vip
        self.start = start
        self.duration = duration
        self.rate_bps = rate_bps
        self.broken_by_removal = False
        if key_hash is not None:
            self.key_hash = key_hash
        self._first_t = None
        self._first_dip = None
        self._log = None

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: ``key_hash`` before first read.
        if name != "key_hash":
            raise AttributeError(name)
        value = self.key_hash = base_hash(self.key)
        return value

    def __getstate__(self) -> Dict[str, object]:
        # ``copy`` and ``pickle`` would read every slot through
        # ``getattr``, and an unread ``key_hash`` through ``__getattr__``
        # would hash the key: read the slots' own descriptors instead, so
        # an unset one stays unset in the copy.
        state = {}
        for name in Connection.__slots__:
            try:
                state[name] = getattr(Connection, name).__get__(self)
            except AttributeError:
                pass
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def five_tuple(self) -> FiveTuple:
        """The connection's 5-tuple, decoded from its key bytes."""
        return FiveTuple.from_key_bytes(self.key)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def record_decision(self, t: float, dip: Optional[DirectIP]) -> None:
        """Record a forwarding decision for packets from time ``t`` on."""
        if self._first_t is None:
            self._first_t = t
            self._first_dip = dip
            return
        log = self._log
        if log is None:
            if self._first_dip != dip:
                self._log = [(self._first_t, self._first_dip), (t, dip)]
        elif log[-1][1] != dip:
            log.append((t, dip))

    @property
    def decisions(self) -> List[Tuple[float, Optional[DirectIP]]]:
        """Every (time, DIP) decision in order, as a new list."""
        if self._log is not None:
            return list(self._log)
        if self._first_t is None:
            return []
        return [(self._first_t, self._first_dip)]

    @property
    def current_dip(self) -> Optional[DirectIP]:
        """Where packets go as of the latest decision (``None``: nowhere,
        or no decision yet)."""
        if self._log is not None:
            return self._log[-1][1]
        return self._first_dip

    def distinct_dips(self) -> List[DirectIP]:
        """DIPs this connection's packets were sent to, in order."""
        if self._log is None:
            return [] if self._first_dip is None else [self._first_dip]
        seen: List[DirectIP] = []
        for _t, dip in self._log:
            if dip is not None and (not seen or seen[-1] != dip):
                seen.append(dip)
        return seen

    @property
    def pcc_violated(self) -> bool:
        """True if the load balancer sent this connection's packets to more
        than one DIP (excluding connections whose own DIP was removed)."""
        return not self.broken_by_removal and self.remapped

    @property
    def remapped(self) -> bool:
        """True if the decision ever changed, for any reason (includes
        connections whose DIP was removed)."""
        log = self._log
        if log is None:
            # Nearly every connection: one decision, nothing to compare.
            return False
        return len({dip for _t, dip in log if dip is not None}) > 1

    @property
    def ever_dropped(self) -> bool:
        """True if some packets had no DIP (blackholed)."""
        log = self._log
        if log is None:
            return self._first_t is not None and self._first_dip is None
        return any(dip is None for _t, dip in log)
