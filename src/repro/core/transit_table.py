"""TransitTable: the pending-connection Bloom filter (§4.3).

During a 3-step PCC update the TransitTable remembers which connections must
keep using the *old* DIP-pool version.  Its lifecycle per update:

* **Step 1 (write-only)** between t_req and t_exec: every new connection of
  a VIP under update is inserted.
* **Step 2 (read-only)** between t_exec and t_finish: packets that miss
  ConnTable query the filter — hit means old version, miss means new.
* **Step 3**: cleared.

Several VIPs may be mid-update simultaneously; they share the physical
filter (it is one register array).  A naive reference count that only wipes
the array when the *last* in-flight update finishes lets the marks of an
update that already reached step 3 linger, inflating step-2 false positives
for unrelated VIPs for as long as any other update is in flight.  This
wrapper therefore **per-update-accounts** the marks: :meth:`update_started`
hands out an update id, :meth:`mark` stamps each mark with its owning
update, and when an update finishes while others remain in flight the
control plane takes back exactly that update's marks (it logged them during
step 1).  The filter's cells count the live marks on them, so a cell
another in-flight update also set stays set: eviction costs the finished
update's marks alone and can never produce a false negative.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..asicsim.registers import BloomFilter, BloomQuery
from ..obs.metrics import MetricRegistry, Scope

#: Hash functions of the Bloom filter (§4.3): one register-array lookup
#: per hash way, four ways in the paper's 256-byte design.
TRANSIT_HASH_WAYS = 4


class TransitTable:
    """The shared pending-connection filter of one switch.

    It counts into the ``metrics`` scope it is handed (a private registry
    of its own when built without one); those instruments are the only
    store, and ``clears`` / ``rebuilds`` / ``evicted_marks`` /
    ``false_positives`` read them.
    """

    def __init__(
        self,
        size_bytes: int = 256,
        num_hashes: int = TRANSIT_HASH_WAYS,
        metrics: Scope = None,
    ):
        self._filter = BloomFilter(size_bytes, num_hashes=num_hashes)
        self._next_update_id = 1
        #: update id -> {key: cached base hash} of the marks it owns.
        self._owned: Dict[int, Dict[bytes, Optional[int]]] = {}
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_marks = metrics.counter(
            "marks_total", "pending connections written during step 1"
        )
        self._m_checks = metrics.counter(
            "checks_total", "ConnTable-miss packets that consulted the filter"
        )
        self._m_hits = metrics.counter(
            "hits_total", "filter queries answered positive"
        )
        self._m_fp = metrics.counter(
            "false_positives_total", "positive answers for never-marked keys"
        )
        self._m_clears = metrics.counter(
            "clears_total", "filter wipes at step 3 (no update left in flight)"
        )
        self._m_rebuilds = metrics.counter(
            "rebuilds_total",
            "filter rebuilds evicting a finished update's marks while "
            "other updates stayed in flight",
        )
        self._m_evicted = metrics.counter(
            "evicted_marks_total",
            "marks of finished updates removed before the last clear",
        )
        metrics.gauge("population", "keys marked since the last clear").set_function(
            lambda: float(self._filter.population)
        )
        metrics.gauge("fill_ratio", "fraction of set bits").set_function(
            lambda: self._filter.fill_ratio
        )
        metrics.gauge("active_updates", "updates currently using the filter").set_function(
            lambda: float(len(self._owned))
        )

    clears = property(lambda self: int(self._m_clears.value))
    rebuilds = property(lambda self: int(self._m_rebuilds.value))
    evicted_marks = property(lambda self: int(self._m_evicted.value))
    false_positives = property(lambda self: int(self._m_fp.value))

    # -- update lifecycle ------------------------------------------------

    def update_started(self) -> int:
        """An update entered step 1; returns its id for mark stamping."""
        update_id = self._next_update_id
        self._next_update_id += 1
        self._owned[update_id] = {}
        return update_id

    def update_finished(self, update_id: int) -> None:
        """An update reached step 3: evict its marks.

        With no update left in flight the filter is wiped outright; while
        others remain, only the finished update's own marks are taken back
        (a key another in-flight update also marked keeps its bits), so
        stale bits stop inflating other VIPs' false positives.

        ``update_id`` is the token :meth:`update_started` returned.
        """
        finished = self._owned.pop(update_id)
        if not self._owned:
            # Last in-flight update: step 3 proper, the filter truly clears.
            self._filter.clear()
            self._m_clears.value += 1.0
            return
        evicted = self._filter.remove(finished.items())
        self._m_rebuilds.value += 1.0
        self._m_evicted.value += float(evicted)

    @property
    def active_updates(self) -> int:
        return len(self._owned)

    # -- data plane --------------------------------------------------------

    def mark(self, key: bytes, key_hash: Optional[int], update_id: int) -> None:
        """Step 1: remember a pending connection (one-cycle transactional
        write in hardware).

        ``key_hash`` is the connection's cached base hash (``None`` hashes
        the key bytes); ``update_id`` stamps the mark with its owning
        update so it can be evicted the moment that update finishes.  A
        key its update already marked counts once.
        """
        owned = self._owned[update_id]
        if key not in owned:
            owned[key] = key_hash
            self._filter.insert(key, key_hash)
        self._m_marks.value += 1.0

    def check(self, key: bytes, key_hash: Optional[int] = None) -> BloomQuery:
        """Step 2: should this ConnTable-missing packet use the old version?"""
        query = self._filter.query(key, key_hash)
        self._m_checks.value += 1.0
        if query.positive:
            self._m_hits.value += 1.0
            if query.false_positive:
                self._m_fp.value += 1.0
        return query

    # -- accounting --------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._filter.size_bytes

    def nonzero_cells(self) -> List[int]:
        """Indices of the register cells the data plane reads as 1."""
        return self._filter.nonzero_cells()

    @property
    def population(self) -> int:
        return self._filter.population

    @property
    def fill_ratio(self) -> float:
        return self._filter.fill_ratio

    def expected_false_positive_rate(self, population: Optional[int] = None) -> float:
        return self._filter.expected_false_positive_rate(population)
