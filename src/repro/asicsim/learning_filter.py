"""The ASIC's learning filter, repurposed for connection learning.

L2 switches learn MAC addresses in hardware through a *learning filter*: the
data plane deposits new-key events into a small on-chip buffer that batches
and deduplicates them, and notifies the switch CPU when the buffer fills or
a timeout expires.  SilkRoad reuses exactly this block to learn new L4
connections (§4.1): the first packet of a connection triggers a learn event;
the CPU later drains the batch and runs cuckoo insertion into ConnTable.

The batching delay of this filter is the root cause of *pending connections*
(arrived but not yet installed), which is what the TransitTable exists to
protect during DIP-pool updates.  Figure 18 sweeps the filter timeout between
0.5 ms and 5 ms; 2 K events with a 1 ms timeout is the paper's default.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..obs.metrics import LATENCY_BUCKETS_S, MetricRegistry, Scope


class LearnEvent(NamedTuple):
    """One deduplicated new-connection event.

    ``key_hash`` carries the connection's cached base hash (see
    :func:`repro.asicsim.hashing.base_hash`) from the data plane to the
    switch CPU, so the later cuckoo insertion never re-hashes the key bytes.
    A ``NamedTuple`` rather than a frozen dataclass: one is allocated per
    offered connection, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    key: bytes
    metadata: Tuple
    first_seen: float
    key_hash: Optional[int] = None


#: Builds a :class:`LearnEvent` from its field tuple in C (the generated
#: ``NamedTuple.__new__`` is a Python-level function); one is built per
#: offered connection.
_new_record = tuple.__new__


class LearnBatch(NamedTuple):
    """A drained batch handed to the switch CPU (built, like
    :class:`LearnEvent`, with :data:`_new_record`: one per flush)."""

    events: List[LearnEvent]
    reason: str  # "full", "timeout" or "forced" (end-of-run drain)


class LearningFilter:
    """Batches and deduplicates new-key events for the switch CPU.

    Parameters
    ----------
    capacity:
        Events held before a forced flush (hardware buffer depth; 2048 by
        default, the paper's "2K insertions").
    timeout:
        Seconds after the *oldest undelivered event* at which the filter
        notifies the CPU even if not full (0.5-5 ms in the paper).
    metrics:
        The :class:`~repro.obs.metrics.Scope` the filter counts into
        (offers, dedup hits, flushes, batch sizes, per-event drain
        latency); a private registry's when omitted.  It is the only
        store: ``flushes_full`` and the other counts are views of it.
    """

    def __init__(
        self,
        capacity: int = 2048,
        timeout: float = 1e-3,
        metrics: Scope = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.capacity = capacity
        self.timeout = timeout
        self._pending: Dict[bytes, LearnEvent] = {}
        self._oldest: Optional[float] = None
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_offered = metrics.counter(
            "events_offered_total", "new-key events deposited by the data plane"
        )
        self._m_dedup = metrics.counter(
            "dedup_hits_total", "events merged into an already-pending key"
        )
        self._m_flushes_full = metrics.counter(
            "flushes_full_total", "batches flushed because the buffer filled"
        )
        self._m_flushes_timeout = metrics.counter(
            "flushes_timeout_total", "batches flushed on the notification timer"
        )
        self._m_flushes_forced = metrics.counter(
            "flushes_forced_total",
            "batches force-drained at end of run (not a timer expiry)",
        )
        self._m_batch_size = metrics.histogram(
            "batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                     512.0, 1024.0, 2048.0, 4096.0),
            help="events per drained batch",
        )
        self._m_drain_latency = metrics.histogram(
            "drain_latency_s",
            buckets=LATENCY_BUCKETS_S,
            help="time each event waited in the filter before drain",
        )
        metrics.gauge("occupancy", "events pending in the buffer").set_function(
            lambda: float(len(self._pending))
        )

    deduplicated = property(lambda self: int(self._m_dedup.value))
    flushes_full = property(lambda self: int(self._m_flushes_full.value))
    flushes_timeout = property(lambda self: int(self._m_flushes_timeout.value))
    flushes_forced = property(lambda self: int(self._m_flushes_forced.value))

    def offer(
        self,
        key: bytes,
        now: float,
        metadata: Tuple = (),
        key_hash: Optional[int] = None,
    ) -> Optional[LearnBatch]:
        """Deposit a learn event; returns a batch if the buffer filled.

        Duplicate keys (multiple packets of the same connection racing the
        CPU) are merged, as the hardware filter does.  ``key_hash`` is the
        key's cached base hash, forwarded to the CPU on the event.
        """
        self._m_offered.value += 1.0
        if key in self._pending:
            self._m_dedup.value += 1.0
            return None
        self._pending[key] = _new_record(LearnEvent, (key, metadata, now, key_hash))
        if self._oldest is None:
            self._oldest = now
        if len(self._pending) >= self.capacity:
            return self._flush(now, "full")
        return None

    def poll(self, now: float) -> Optional[LearnBatch]:
        """Flush on timeout; the CPU calls this on its notification timer.

        The comparison uses the same float expression as
        :meth:`next_deadline` so a timer fired exactly at the deadline
        always flushes (``now - oldest >= timeout`` can round the other
        way).
        """
        if self._oldest is not None and now >= self._oldest + self.timeout:
            return self._flush(now, "timeout")
        return None

    def next_deadline(self) -> Optional[float]:
        """Absolute time of the next timeout flush, if any events pend."""
        if self._oldest is None:
            return None
        return self._oldest + self.timeout

    def _flush(self, now: float, reason: str) -> LearnBatch:
        if reason == "full":
            self._m_flushes_full.value += 1.0
        elif reason == "forced":
            self._m_flushes_forced.value += 1.0
        else:
            self._m_flushes_timeout.value += 1.0
        events = list(self._pending.values())
        self._m_batch_size.observe(float(len(events)))
        for event in events:
            self._m_drain_latency.observe(now - event.first_seen)
        self._pending.clear()
        self._oldest = None
        return _new_record(LearnBatch, (events, reason))

    def flush(self, now: float) -> Optional[LearnBatch]:
        """Force-drain (used at simulation end).

        Counted under its own ``"forced"`` reason: an end-of-run drain is
        not a notification-timer expiry, and folding it into
        ``flushes_timeout_total`` would skew the fig18 timeout-flush
        accounting.
        """
        if not self._pending:
            return None
        return self._flush(now, "forced")

    @property
    def occupancy(self) -> int:
        return len(self._pending)

    def __contains__(self, key: bytes) -> bool:
        return key in self._pending
