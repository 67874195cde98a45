"""Multi-stage cuckoo exact-match table, as instantiated on RMT-style ASICs.

A large exact-match table (like SilkRoad's ConnTable) is spread over several
physical pipeline stages.  Each stage hashes the key with its *own* hash
function into a bucket of ``ways`` slots (the entries packed into one SRAM
word).  The data plane looks the key up in every stage's candidate bucket and
returns the first digest match; the switch CPU performs insertions by running
a breadth-first cuckoo search that moves existing entries between their
candidate buckets to free a slot.

Two behaviours of the real hardware matter to SilkRoad and are modelled
faithfully here:

* **Digest false positives.** Only a short digest of the key is stored, so a
  *different* key can hit an existing entry.  ``lookup`` reports this exactly
  like the ASIC would (it simply returns the matching slot's value), and also
  flags it so the harness can count false positives (§6.1 of the paper).
  The control plane resolves a detected collision by *relocating* the
  resident entry to a different stage, where the two keys hash apart
  (:meth:`CuckooTable.relocate`).

* **Slow, software-driven insertion.** Insertion cost is returned as the
  number of entry moves the BFS performed, which the control-plane model
  turns into CPU time.

A key's candidate buckets and digests (its *profile*) come from seeded
mixing of its one base hash (:mod:`repro.asicsim.hashing`); a window of
keys is profiled in one numpy pass (:meth:`CuckooTable.profile_many`),
bit-identical to the per-key rounds.

The host keeps a resident entry as one *row* of typed columns and an
occupied bucket as one int word, so every byte the table holds grows with
its residents, never with its capacity (see :class:`CuckooTable`).

The table additionally enforces the software invariant that no *resident*
connection's lookup is shadowed by another resident entry: when a placement
would shadow (or be shadowed by) an existing entry, the search avoids it.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..obs.metrics import MetricRegistry, Scope
from .hashing import (
    DEFAULT_SEED,
    HashUnit,
    _splitmix64,
    base_hash,
    hash_family,
    splitmix64_rows,
)
from .sram import ENTRY_OVERHEAD_BITS, bytes_for_entries

#: Cap on the insertion BFS frontier before the table is declared full.
MAX_BFS_NODES = 4096

#: Smallest batch :meth:`CuckooTable.profile_many` derives with numpy;
#: below it the scalar rounds are cheaper than the array round-trip.
PROFILE_VECTOR_MIN = 3

#: Rows the columns grow by when no row is free (one copy in C per block).
ROW_BLOCK = 64

#: Load factor above which insertions fail at once instead of running the
#: BFS (saturated-table protection).  Occupancy ablations patch it to 1.0,
#: so the search runs until the table is full.
FAST_FAIL_LOAD = 0.98

#: Bound on the LRU side cache of non-resident key profiles (keys
#: mid-insertion or being probed).  Eviction is per-entry LRU, not a
#: wholesale clear, so BFS inserts under churn don't thrash.
PROFILE_CACHE_SIZE = 16384


def stage_hash_units(
    stages: int, seed: int = DEFAULT_SEED
) -> Tuple[List[HashUnit], List[HashUnit]]:
    """Each stage's independent (index units, digest units) for ``seed``."""
    digest_seed = seed ^ 0xD16E57
    return hash_family(stages, base_seed=seed), hash_family(stages, base_seed=digest_seed)


def buckets_for_capacity(capacity: int, target_load: float, ways: int, stages: int) -> int:
    """Buckets per stage so ``capacity`` entries fit at ``target_load``."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 < target_load <= 1.0:
        raise ValueError("target_load must be in (0, 1]")
    slots_needed = int(capacity / target_load)
    return max(-(-slots_needed // (stages * ways)), 1)


def _column(bits: int) -> array:
    """An empty column of the narrowest unsigned item holding ``bits``."""
    return next(array(code) for code in "BHIQ" if array(code).itemsize * 8 >= bits)


class _SplitColumn:
    """Packed triples too wide for a uint64 (a wide digest's), kept as a
    cell column and a digest column: an int object each would cost more
    than the rest of the row."""

    def __init__(self, shift: int, digest_bits: int) -> None:
        self._cells, self._digests, self._shift = _column(shift), _column(digest_bits), shift

    def __getitem__(self, item: int) -> int:
        return self._digests[item] << self._shift | self._cells[item]

    def __setitem__(self, item: int, triple: int) -> None:
        self._cells[item] = triple & (1 << self._shift) - 1
        self._digests[item] = triple >> self._shift

    def extend(self, zeros: bytes) -> None:
        self._cells.extend(zeros)
        self._digests.extend(zeros)


class TableFull(RuntimeError):
    """Raised when the cuckoo BFS cannot free a slot for a new entry."""


class DuplicateKey(KeyError):
    """Raised when inserting a key that is already resident."""


class Location(NamedTuple):
    """Physical position of an entry: (stage, bucket, way).

    A ``NamedTuple`` rather than a frozen dataclass: one is allocated per
    insert (and per lookup hit), and tuple construction skips the
    per-field ``object.__setattr__`` a frozen dataclass pays.
    """

    stage: int
    bucket: int
    way: int


class LookupResult(NamedTuple):
    """Outcome of a data-plane lookup.

    ``hit`` is what the ASIC sees (digest matched).  ``false_positive`` is
    ground truth the simulator keeps: the digest matched but the stored key
    differs from the queried key.
    """

    hit: bool
    value: Optional[int] = None
    location: Optional[Location] = None
    false_positive: bool = False


#: Shared miss result: lookups miss far more often than they hit on the
#: arrival hot path, and the result is immutable, so one instance serves
#: every miss without a per-call allocation.
_MISS = LookupResult(hit=False)


class InsertResult(NamedTuple):
    """Outcome of a software insertion."""

    location: Location
    moves: int


#: Builds a record from its field tuple in C: the generated
#: ``NamedTuple.__new__`` is a Python-level function, and one
#: ``InsertResult`` (with its ``Location``) is built per insert.
_new_record = tuple.__new__


class CuckooTable:
    """A ``stages``-stage, ``ways``-way cuckoo hash table with digests.

    The software shadow state is columnar:

    * A resident is a dense *row* (``_row_of`` maps its key to it; a deleted
      row is reused from ``_free``) across typed columns: key, value, slot
      ``(stage offset + bucket) * ways + way`` (whose stage is its home),
      and its profile: its packed candidate triple in every stage, a row's
      stages side by side in ``_cands``.
    * An occupied bucket is one int *word* in ``_buckets``, keyed by its
      cell (stage offset + bucket): ``ways`` valid bits, then one row
      field per way — the model's copy of the SRAM word.
    * ``_match`` maps each resident's packed *home triple*, ``digest <<
      shift | cell``, to its row: the key the data plane matches on, so a
      lookup miss is one C-level disjointness test.
    * ``_below`` keeps, per cell, the digests of the residents whose
      candidate bucket it is in a stage *below* their home, which neither
      map names and placement legality needs.

    An insert that finds no free, legal way runs a *free-first* BFS
    (:meth:`_bfs_paths`).  ``ConnTable`` is this class at §4.2's geometry.

    Parameters
    ----------
    buckets_per_stage:
        Number of buckets (SRAM words) in each stage.
    ways:
        Slots per bucket; four 28-bit entries fit a 112-bit word.
    stages:
        Physical pipeline stages the table spans.
    digest_bits:
        Width of the stored key digest (16 in SilkRoad's default design).
        A per-stage sequence implements the §7 optimization of giving
        early stages wider digests (fewer false positives) and later
        stages narrower ones (denser packing as the table fills).
    value_bits:
        Width of the action data (6-bit DIP-pool version by default).
    metrics:
        The :class:`~repro.obs.metrics.Scope` the table counts into
        (lookups, false positives, insert attempts/failures, cuckoo moves,
        per-stage occupancy); a private registry's when omitted.  It is the
        only store: ``total_lookups`` and the other counts are views of it.
    """

    def __init__(
        self,
        buckets_per_stage: int,
        ways: int = 4,
        stages: int = 4,
        digest_bits=16,
        value_bits: int = 6,
        seed: int = DEFAULT_SEED,
        metrics: Scope = None,
    ) -> None:
        if buckets_per_stage <= 0:
            raise ValueError("buckets_per_stage must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        if stages <= 0:
            raise ValueError("stages must be positive")
        self.buckets_per_stage = buckets_per_stage
        self.ways = ways
        self.stages = stages
        if isinstance(digest_bits, int):
            self.digest_bits_per_stage = [digest_bits] * stages
        else:
            self.digest_bits_per_stage = list(digest_bits)
            if len(self.digest_bits_per_stage) != stages:
                raise ValueError("need one digest width per stage")
        if any(not 1 <= b <= 64 for b in self.digest_bits_per_stage):
            raise ValueError("digest widths must be in [1, 64]")
        self.digest_bits = max(self.digest_bits_per_stage)
        self.value_bits = value_bits
        # Occupancy at which insert() fails without running the BFS.
        capacity = stages * buckets_per_stage * ways
        self._fast_fail_entries = int(capacity * FAST_FAIL_LOAD)
        # Each stage gets an independent index hash and digest hash; all of
        # them derive from the same single-pass base hash with per-unit
        # seeded mixing (see repro.asicsim.hashing).
        self._index_units, self._digest_units = stage_hash_units(stages, seed)
        # A candidate (stage, bucket, digest) triple is packed into one int,
        # ``digest << shift | (stage * buckets + bucket)``: its low bits are
        # the bucket's cell, and an int hashes far cheaper than a tuple on
        # the hottest paths (lookup's fast miss, the twin test per insert).
        self._stage_offsets: List[int] = [s * buckets_per_stage for s in range(stages)]
        self._cand_shift = (stages * buckets_per_stage).bit_length()
        self._cell_mask = (1 << self._cand_shift) - 1
        # Pre-resolved per-stage derivation parameters so the hot profile
        # loop is pure integer mixing with no method dispatch:
        # (index seed_mix, digest seed_mix, 64 - digest_bits, stage offset).
        self._stage_mixes: List[Tuple[int, int, int, int]] = [
            (
                self._index_units[s].seed_mix,
                self._digest_units[s].seed_mix,
                64 - self.digest_bits_per_stage[s],
                self._stage_offsets[s],
            )
            for s in range(stages)
        ]
        # The same parameters as columns for profile_many's one-pass
        # derivation: rows 0..stages-1 of its kernel call are the index
        # units, rows stages..2*stages-1 the digest units.
        self._row_mixes: List[int] = [u.seed_mix for u in self._index_units] + [
            u.seed_mix for u in self._digest_units
        ]
        self._row_offsets = np.array(self._stage_offsets, dtype=np.uint64)[:, None]
        self._row_shifts = np.array(
            [64 - bits for bits in self.digest_bits_per_stage], dtype=np.uint64
        )[:, None]
        # A packed triple fits a uint64 unless a digest is very wide.
        self._pack_in_numpy = self.digest_bits + self._cand_shift <= 64
        # The resident rows.  Every column starts empty and grows with the
        # rows ever live at once (the residents and one key mid-insert,
        # rounded up to a ROW_BLOCK); a free row's items stay until the row
        # is reused.  A row's packed triples sit side by side, stage s of
        # row r at item r * stages + s, and its home stage is its slot's.
        self._row_of: Dict[bytes, int] = {}
        self._free: List[int] = []
        self._keys: List[Optional[bytes]] = []
        self._values = _column(value_bits)
        self._slots = _column(capacity.bit_length())
        self._stage_slots = buckets_per_stage * ways
        wide, bits = not self._pack_in_numpy, self.digest_bits + self._cand_shift
        self._cands = _SplitColumn(self._cand_shift, self.digest_bits) if wide else _column(bits)
        self._digest_code = _column(self.digest_bits).typecode
        # Occupied buckets only: cell -> word.  Bit ``way`` of a word is set
        # when that way holds an entry, whose row sits in the field at bit
        # ``ways + way * _row_bits``; a word leaves the map with its last
        # entry.
        self._buckets: Dict[int, int] = {}
        self._row_bits = (capacity + ROW_BLOCK).bit_length()
        self._row_mask = (1 << self._row_bits) - 1
        self._full = (1 << ways) - 1
        # Packed home triple -> row (one per resident: two residents under
        # one triple would share a bucket and a digest, and one of them
        # would be shadowed).
        self._match: Dict[int, int] = {}
        # cell -> the digests (in that cell's stage) of the residents whose
        # candidate bucket there is the cell and whose home is a later
        # stage; a multiset, in the narrowest type the digests fit.
        self._below: Dict[int, array] = {}
        #: Resident entries per stage, maintained on place / move / delete.
        self._stage_counts: List[int] = [0] * stages
        self.profile_cache_size = PROFILE_CACHE_SIZE
        self._profile_cache: "OrderedDict[bytes, Tuple[int, ...]]" = OrderedDict()
        self.profile_cache_evictions = 0
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_lookups = metrics.counter("lookups_total", "data-plane digest lookups")
        self._m_lookup_fp = metrics.counter(
            "lookup_false_positives_total", "digest matches on a different key"
        )
        self._m_insert_attempts = metrics.counter(
            "insert_attempts_total", "software insertion attempts"
        )
        self._m_inserts = metrics.counter("inserts_total", "successful insertions")
        self._m_insert_failures = metrics.counter(
            "insert_failures_total", "insertions rejected (table full)"
        )
        self._m_moves = metrics.counter("cuckoo_moves_total", "entries moved by the cuckoo BFS")
        self._m_moves_hist = metrics.histogram(
            "cuckoo_moves_per_insert",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            help="BFS moves needed per successful insertion",
        )
        self._m_relocations = metrics.counter(
            "collision_relocations_total", "digest-twin relocations before insert"
        )
        self._m_deletes = metrics.counter("deletes_total", "entry removals (connection expiry)")
        metrics.gauge("occupancy", "resident entries").set_function(
            lambda: float(len(self._row_of))
        )
        metrics.gauge("load_factor", "occupancy / capacity").set_function(
            lambda: self.load_factor
        )
        metrics.gauge("capacity", "total slots").set(float(self.capacity))
        for stage in range(self.stages):
            metrics.gauge(
                f"stage{stage}_occupancy", f"resident entries in stage {stage}"
            ).set_function(lambda s=stage: float(self._stage_counts[s]))

    total_lookups = property(lambda self: int(self._m_lookups.value))
    false_positive_lookups = property(lambda self: int(self._m_lookup_fp.value))
    collision_relocations = property(lambda self: int(self._m_relocations.value))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_capacity(
        cls,
        capacity: int,
        target_load: float = 0.90,
        ways: int = 4,
        stages: int = 4,
        **kwargs,
    ) -> "CuckooTable":
        """Size a table so ``capacity`` entries fit at ``target_load``."""
        per_stage = buckets_for_capacity(capacity, target_load, ways, stages)
        return cls(buckets_per_stage=per_stage, ways=ways, stages=stages, **kwargs)

    # ------------------------------------------------------------------
    # Geometry / accounting
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of slots across all stages."""
        return self.stages * self.buckets_per_stage * self.ways

    @property
    def entry_bits(self) -> int:
        return self.digest_bits + self.value_bits + ENTRY_OVERHEAD_BITS

    @property
    def sram_bytes(self) -> int:
        """SRAM allocated to the table (all slots, packed into words).

        With per-stage digest widths, each stage packs its own entry size
        (that is the point of the §7 optimization).
        """
        slots_per_stage = self.buckets_per_stage * self.ways
        return sum(
            bytes_for_entries(
                slots_per_stage, bits + self.value_bits + ENTRY_OVERHEAD_BITS
            )
            for bits in self.digest_bits_per_stage
        )

    @property
    def load_factor(self) -> float:
        return len(self._row_of) / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, key: bytes) -> bool:
        return key in self._row_of

    def keys(self) -> Iterator[bytes]:
        return iter(self._row_of)

    # ------------------------------------------------------------------
    # Per-key geometry
    # ------------------------------------------------------------------

    def _profile(self, key: bytes, key_hash: Optional[int] = None) -> Tuple[int, ...]:
        """Candidate triple of a *non-resident* key in every stage, encoded.

        One single-pass derivation: the key is byte-hashed once (or not at
        all, when the caller supplies a cached ``key_hash`` base), then every
        stage's bucket index and digest come from cheap seeded integer
        mixing of that base.

        A resident's profile lives in its row; a bounded LRU side cache
        covers keys being probed or mid-insertion (the arrival looks the
        key up, the install inserts it and drops it from the cache)
        without the re-hash storms a wholesale clear would cause under
        churn.
        """
        cache = self._profile_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        profile = self._derive_profile(base_hash(key) if key_hash is None else key_hash)
        # Admit it, evicting the oldest.
        if len(cache) >= self.profile_cache_size:
            cache.popitem(last=False)
            self.profile_cache_evictions += 1
        cache[key] = profile
        return profile

    def _derive_profile(self, base: int) -> Tuple[int, ...]:
        """The scalar derivation: a base hash's candidate triples."""
        buckets, cshift = self.buckets_per_stage, self._cand_shift
        # Built from a list, so the tuple is allocated at its final size.
        return tuple(
            [
                (_splitmix64(base ^ digest_mix) >> shift) << cshift
                | (offset + _splitmix64(base ^ index_mix) % buckets)
                for index_mix, digest_mix, shift, offset in self._stage_mixes
            ]
        )

    def profile_many(self, bases: List[int]) -> List[Tuple[int, ...]]:
        """Candidate profiles for a batch of base hashes, in one pass.

        Bit-identical to the scalar derivation of :meth:`_profile` for each
        base: one :func:`splitmix64_rows` call derives every stage's index
        and digest row for the whole batch, and the triples are packed in
        numpy when they fit 64 bits (on Python ints for a wide digest).
        Batches below :data:`PROFILE_VECTOR_MIN` keys take the scalar
        rounds, which are cheaper than an array round-trip there.  Does
        not touch the caches — see :meth:`prime_profiles` for the caching
        wrapper.
        """
        if len(bases) < PROFILE_VECTOR_MIN:
            return list(map(self._derive_profile, bases))
        stages, cshift = self.stages, self._cand_shift
        rows = splitmix64_rows(bases, self._row_mixes)
        cells = rows[:stages] % np.uint64(self.buckets_per_stage) + self._row_offsets
        digests = rows[stages:] >> self._row_shifts
        if self._pack_in_numpy:
            packed = (digests << np.uint64(cshift) | cells).tolist()
        else:  # a wide digest overflows uint64: pack on Python ints
            packed = [
                [d << cshift | c for d, c in zip(ds, cs)]
                for ds, cs in zip(digests.tolist(), cells.tolist())
            ]
        # One list per stage, zipped into the profiles (transposing first
        # would build a throwaway list per key).
        return list(zip(*packed))

    def prime_profiles(
        self, keys: List[bytes], key_hashes: List[Optional[int]]
    ) -> None:
        """Warm the profile caches for a batch of keys.

        After this, ``lookup``/``insert`` on any of ``keys`` finds its
        profile cached and performs zero hashing.  Cache discipline matches
        the scalar path per key in list order (hits refresh LRU position,
        misses insert with the same eviction rule), so cache state evolves
        as if each key had been profiled individually.
        """
        rows = self._row_of
        cache = self._profile_cache
        missing_keys: List[bytes] = []
        missing_bases: List[int] = []
        seen: Set[bytes] = set()
        for key, base in zip(keys, key_hashes):
            if key in rows or key in cache or key in seen:
                continue
            seen.add(key)
            missing_keys.append(key)
            # A None hash means the caller has no cached base: byte-hash
            # here, once, exactly as the scalar profile path would.
            missing_bases.append(base_hash(key) if base is None else base)
        computed = (
            dict(zip(missing_keys, self.profile_many(missing_bases)))
            if missing_keys
            else {}
        )
        size = self.profile_cache_size
        for key, base in zip(keys, key_hashes):
            if key in rows:
                continue
            if key in cache or key not in computed:
                # A hit refreshes the LRU position.  A key that was cached
                # during the first pass but has been evicted since by this
                # batch's own admissions is in neither: derive it the
                # scalar way.
                self._profile(key, base)
                continue
            # Admit it as ``_profile`` does, inline: once per arrival.
            if len(cache) >= size:
                cache.popitem(last=False)
                self.profile_cache_evictions += 1
            cache[key] = computed[key]

    def _triple(self, row: int, stage: int) -> int:
        """``row``'s packed candidate triple in ``stage``."""
        return self._cands[row * self.stages + stage]

    def _home(self, row: int) -> int:
        """The stage a resident ``row`` lives in."""
        return self._slots[row] // self._stage_slots

    # ------------------------------------------------------------------
    # Data-plane lookup
    # ------------------------------------------------------------------

    def lookup(self, key: bytes, key_hash: Optional[int] = None) -> LookupResult:
        """Data-plane lookup: first digest match across stages wins.

        Exactly mirrors the hardware: only the digest is compared, so a
        different resident key can (rarely) match.  The result carries the
        ground-truth ``false_positive`` flag for measurement.  ``key_hash``
        is the key's cached base hash; supplying it skips the byte pass.
        """
        self._m_lookups.value += 1.0
        row = self._row_of.get(key)
        if row is None:
            # ``_profile``'s cache hit, inline: arrivals are primed.
            cache = self._profile_cache
            profile = cache.get(key)
            if profile is None:
                profile = self._profile(key, key_hash)
            else:
                cache.move_to_end(key)
        else:  # a resident's triples, read off its row
            profile = tuple([self._triple(row, stage) for stage in range(self.stages)])
        match = self._match
        # Fast miss: the entry a candidate bucket of stage s holds with the
        # key's digest is the resident whose home triple is the key's
        # triple of stage s; with none in any stage the lookup cannot hit.
        if match.keys().isdisjoint(profile):
            return _MISS
        for cand in profile:
            other = match.get(cand)
            if other is not None:
                fp = self._keys[other] != key
                if fp:
                    self._m_lookup_fp.value += 1.0
                return LookupResult(True, self._values[other], self._location(other), fp)
        return _MISS

    def get_exact(self, key: bytes) -> Optional[int]:
        """Software (full-key) lookup; no false positives."""
        row = self._row_of.get(key)
        return None if row is None else self._values[row]

    def key_at(self, location: Location) -> Optional[bytes]:
        """Full key of the entry at ``location``; ``None`` for a free slot."""
        stage, bucket, way = location
        word = self._buckets.get(self._stage_offsets[stage] + bucket, 0)
        return self._keys[self._way_row(word, way)] if word >> way & 1 else None

    def _way_row(self, word: int, way: int) -> int:
        """The row in ``way`` of a bucket ``word``."""
        return word >> self.ways + way * self._row_bits & self._row_mask

    def _location(self, row: int) -> Location:
        """Physical location of a resident's row."""
        stage = self._home(row)
        cell, way = divmod(self._slots[row], self.ways)
        return _new_record(Location, (stage, cell - self._stage_offsets[stage], way))

    # ------------------------------------------------------------------
    # Placement legality (software invariant)
    # ------------------------------------------------------------------

    def _placement_legal(self, row: int, stage: int) -> bool:
        """Whether storing ``row`` at ``stage`` keeps every lookup unambiguous.

        A read-only question answered from the shadow maps alone.  A
        resident of a *later* stage whose candidate bucket and digest in
        ``stage`` are ``row``'s would be shadowed by it (``_below`` counts
        those); one stored under ``row``'s triple of an *earlier* stage, or
        of ``stage``, would shadow it (``_match`` names those) — up to its
        home, none does for a resident being moved: no resident is shadowed
        where it lives.  ``row`` itself is skipped, so its vacated slot
        needs no blanking.
        """
        home = -1 if self._keys[row] is None else self._slots[row] // self._stage_slots
        cands, base = self._cands, row * self.stages
        cand = cands[base + stage]
        below = self._below.get(cand & self._cell_mask)
        # A resident is registered below its home itself.
        if below is not None and below.count(cand >> self._cand_shift) > (stage < home):
            return False
        match = self._match
        for item in range(base + home + 1, base + stage + 1):
            other = match.get(cands[item])
            if other is not None and other != row:
                return False
        return True

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------

    def _grow(self) -> None:
        """Add a ``ROW_BLOCK`` of free rows to every column."""
        rows = len(self._keys)
        self._keys.extend([None] * ROW_BLOCK)
        self._values.frombytes(bytes(ROW_BLOCK * self._values.itemsize))
        self._slots.frombytes(bytes(ROW_BLOCK * self._slots.itemsize))
        self._cands.extend(bytes(ROW_BLOCK * self.stages))  # zero items
        self._free.extend(range(rows + ROW_BLOCK - 1, rows - 1, -1))

    def _unplace(self, row: int) -> int:
        """Free ``row``'s slot; returns its (former) home stage."""
        slot, ways, buckets = self._slots[row], self.ways, self._buckets
        cell = slot // ways
        way = slot - cell * ways
        # Its valid bit is set and its field holds ``row``: subtract both.
        word = buckets[cell] - (1 << way | row << ways + way * self._row_bits)
        if word:
            buckets[cell] = word
        else:
            del buckets[cell]
        home = slot // self._stage_slots
        del self._match[self._cands[row * self.stages + home]]
        self._stage_counts[home] -= 1
        return home

    def _move(self, row: int, stage: int, way: int) -> None:
        """Re-home a resident ``row`` in the free ``way`` of its candidate
        bucket of ``stage``; it is registered below its home at exactly
        stages 0..``stage - 1`` afterwards."""
        home = self._unplace(row)
        if stage > home:
            self._register(row, home, stage)
        elif stage < home:
            self._unregister(row, stage, home)
        triple, ways, buckets = self._triple(row, stage), self.ways, self._buckets
        cell = triple & self._cell_mask
        buckets[cell] = buckets.get(cell, 0) | 1 << way | row << ways + way * self._row_bits
        self._match[triple] = row
        self._slots[row] = cell * ways + way
        self._stage_counts[stage] += 1

    def _register(self, row: int, first: int, stop: int) -> None:
        """Register ``row`` under its cells of stages ``first..stop - 1``."""
        below, cands, mask, shift = self._below, self._cands, self._cell_mask, self._cand_shift
        for item in range(row * self.stages + first, row * self.stages + stop):
            cell, digest = cands[item] & mask, cands[item] >> shift
            registered = below.get(cell)
            if registered is None:
                below[cell] = array(self._digest_code, (digest,))
            else:
                registered.append(digest)

    def _unregister(self, row: int, first: int, stop: int) -> None:
        """Drop ``row``'s registrations of stages ``first..stop - 1``."""
        below, cands, mask, shift = self._below, self._cands, self._cell_mask, self._cand_shift
        for item in range(row * self.stages + first, row * self.stages + stop):
            cell = cands[item] & mask
            registered = below[cell]
            if len(registered) == 1:
                del below[cell]
            else:
                registered.remove(cands[item] >> shift)

    def _free_way(self, cell: int) -> Optional[int]:
        """First free way of bucket ``cell`` (stage offset + bucket)."""
        valid = self._buckets.get(cell, 0) & self._full
        return None if valid == self._full else (~valid & (valid + 1)).bit_length() - 1

    # ------------------------------------------------------------------
    # Insertion (software, cuckoo BFS)
    # ------------------------------------------------------------------

    def insert(
        self, key: bytes, value: int, key_hash: Optional[int] = None
    ) -> InsertResult:
        """Insert an entry, cuckoo-moving residents if needed.

        Returns the number of entry moves performed (0 for a direct
        placement), which the control plane converts into CPU time.
        Raises :class:`TableFull` when no placement is found, and
        :class:`DuplicateKey` on exact-key re-insertion.  ``key_hash`` is
        the key's cached base hash; the whole insertion (profile, BFS,
        legality checks) then runs without re-hashing any bytes.
        """
        rows = self._row_of
        if key in rows:
            raise DuplicateKey(f"key already resident: {key!r}")
        self._m_insert_attempts.value += 1.0
        # Fast-fail when the table is effectively packed: running the BFS
        # for every arrival at a saturated table would burn the switch CPU
        # (and the simulator) for nothing.
        if len(rows) >= self._fast_fail_entries:
            self._m_insert_failures.value += 1.0
            raise TableFull(f"table effectively full ({len(rows)}/{self.capacity})")
        # Popped for good: once placed, the profile lives in the key's row.
        profile = self._profile_cache.pop(key, None)
        if profile is None:
            profile = self._derive_profile(base_hash(key) if key_hash is None else key_hash)
        # A resident digest twin in a candidate bucket (one stored under the
        # key's triple of its stage) shadows every legal placement; the
        # switch software relocates it to another stage (the same fix the
        # redirected-SYN path performs, §4.2).
        match = self._match
        twin_free = match.keys().isdisjoint(profile)
        if not twin_free:
            for twin in [self._keys[match[c]] for c in profile if c in match]:
                if self.relocate(twin):
                    self._m_relocations.value += 1.0

        # A new row: its key is written once it is placed.
        free, cands = self._free, self._cands
        if not free:
            self._grow()
        row = free.pop()
        self._values[row] = value
        for item, cand in enumerate(profile, row * self.stages):
            cands[item] = cand
        buckets, full, mask = self._buckets, self._full, self._cell_mask
        below, shift, moves = self._below, self._cand_shift, 0
        for stage, cand in enumerate(profile):
            # Fast path: a free, legal slot in some candidate bucket.  With
            # no twin, legal means no resident registered below there holds
            # the key's digest.
            cell = cand & mask
            valid = buckets.get(cell, 0) & full
            if valid != full and (
                not below.get(cell, ()).count(cand >> shift)
                if twin_free
                else self._placement_legal(row, stage)
            ):
                way = (~valid & (valid + 1)).bit_length() - 1
                break
        else:
            # BFS over move sequences; every legal candidate bucket is
            # now known to be full.
            for path in self._bfs_paths(row):
                applied = self._apply_move_path(row, path)
                if applied is not None:
                    break
            else:
                free.append(row)
                self._m_insert_failures.value += 1.0
                raise TableFull(
                    f"no slot for key after BFS over {MAX_BFS_NODES} nodes "
                    f"(load {self.load_factor:.3f})"
                )
            stage, way, moves = applied
            cand = profile[stage]
            cell = cand & mask

        # Placed: the word gains the way's valid bit and row field.
        ways = self.ways
        self._keys[row] = key
        rows[key] = row
        buckets[cell] = buckets.get(cell, 0) | 1 << way | row << ways + way * self._row_bits
        match[cand] = row
        self._slots[row] = cell * ways + way
        self._stage_counts[stage] += 1
        if stage:
            self._register(row, 0, stage)
        self._m_inserts.value += 1.0
        self._m_moves.value += moves
        self._m_moves_hist.observe(float(moves))
        location = _new_record(Location, (stage, cell - self._stage_offsets[stage], way))
        return _new_record(InsertResult, (location, moves))

    def _bfs_paths(self, row: int) -> Iterator[list]:
        """Move sequences that would free a slot for ``row``, nearest first.

        Buckets are named by their cell (stage offset + bucket).  Each path
        is the ``(stage, cell)`` that receives the new row followed by the
        ``(src_cell, way, dest_stage, dest_cell)`` moves that free a slot
        there, in path order (:meth:`_apply_move_path` applies them deepest
        first).  Legality is judged against the table as it stands, so a
        path is only a proposal: the search resumes if applying it fails.
        A node judges its moves into free buckets (yielded) before those
        into full ones (queued); a bucket stays free or full for the whole
        node, so the paths and the queue are those of judging in order.
        """
        # Each frontier node: (stage, cell, parent_index, way_moved_from_parent)
        frontier: List[Tuple[int, int, int, Optional[int]]] = []
        seen: Set[int] = set()
        queue: deque = deque()
        cands, legal, stages = self._cands, self._placement_legal, self.stages
        mask = self._cell_mask
        for stage in range(stages):
            if not legal(row, stage):
                continue
            cell = cands[row * stages + stage] & mask
            frontier.append((stage, cell, -1, None))
            queue.append(len(frontier) - 1)
            seen.add(cell)

        buckets, ways, full = self._buckets, self.ways, self._full
        bits, row_mask = self._row_bits, self._row_mask
        nodes_explored = 0
        while queue and nodes_explored < MAX_BFS_NODES:
            idx = queue.popleft()
            stage, cell, _parent, _way = frontier[idx]
            nodes_explored += 1
            # Try to extend: each resident of this bucket could move to one of
            # its candidate buckets in other stages.  A queued bucket is
            # full.  A free destination is judged at once (most searches end
            # at their first); a full one only after every free one.
            word = buckets[cell]
            full_dests = []
            for way in range(ways):
                other = word >> ways + way * bits & row_mask
                base = other * stages
                for dest_stage in range(stages):
                    if dest_stage == stage:
                        continue
                    dest_cell = cands[base + dest_stage] & mask
                    if dest_cell in seen:
                        continue
                    if buckets.get(dest_cell, 0) & full == full:
                        full_dests.append((way, other, dest_stage, dest_cell))
                    elif legal(other, dest_stage):
                        frontier.append((dest_stage, dest_cell, idx, way))
                        seen.add(dest_cell)
                        yield self._reconstruct_path(frontier, len(frontier) - 1)
            for way, other, dest_stage, dest_cell in full_dests:
                if dest_cell not in seen and legal(other, dest_stage):
                    frontier.append((dest_stage, dest_cell, idx, way))
                    seen.add(dest_cell)
                    queue.append(len(frontier) - 1)

    def _reconstruct_path(self, frontier, idx: int):
        """Turn BFS parent pointers into one of :meth:`_bfs_paths`' paths."""
        chain = []
        while idx != -1:
            stage, cell, parent, way = frontier[idx]
            chain.append((stage, cell, way))
            idx = parent
        # chain is [deepest ... root]; root is the new key's bucket.
        root_stage, root_cell, _ = chain[-1]
        moves = []
        # Walk from root towards deepest: entry at (root,way) moves to child.
        for depth in range(len(chain) - 1, 0, -1):
            _, src_cell, _ = chain[depth]
            dst_stage, dst_cell, way = chain[depth - 1]
            moves.append((src_cell, way, dst_stage, dst_cell))
        return [(root_stage, root_cell)] + moves

    def _apply_move_path(self, row: int, path):
        """Apply a path's moves deepest-first, each one only if it is legal
        against the table as the moves before it left it, then check that
        ``row`` may take the freed slot.  Returns ``(stage, way, moves)``
        for the new row; on any illegal step the applied moves are undone
        in reverse and the answer is ``None``."""
        per_stage = self.buckets_per_stage
        done: List[Tuple[int, int, int]] = []
        for src_cell, way, dst_stage, dst_cell in reversed(path[1:]):
            other = self._way_row(self._buckets[src_cell], way)
            # The search judged the deepest move against this very table.
            if done and not self._placement_legal(other, dst_stage):
                break
            self._move(other, dst_stage, self._free_way(dst_cell))
            done.append((other, src_cell, way))
        else:
            stage, cell = path[0]
            if self._placement_legal(row, stage):
                return stage, self._free_way(cell), len(done)
        for other, src_cell, way in reversed(done):
            self._move(other, src_cell // per_stage, way)
        return None

    # ------------------------------------------------------------------
    # Update / delete / relocate
    # ------------------------------------------------------------------

    def update(self, key: bytes, value: int) -> None:
        """Rewrite the action data of a resident entry in place."""
        row = self._row_of.get(key)
        if row is None:
            raise KeyError(f"key not resident: {key!r}")
        self._values[row] = value

    def delete(self, key: bytes) -> None:
        """Remove a resident entry (connection expiry)."""
        row = self._row_of.pop(key, None)
        if row is None:
            raise KeyError(f"key not resident: {key!r}")
        home = self._unplace(row)
        if home:
            self._unregister(row, 0, home)
        self._keys[row] = None
        self._free.append(row)
        self._m_deletes.value += 1.0

    def relocate(self, key: bytes) -> bool:
        """Move a resident entry to a different stage.

        Used by the control plane to resolve a digest collision detected via
        a redirected TCP SYN: the *existing* colliding entry is moved to a
        stage where the two connections hash apart.  Returns ``True`` on
        success.
        """
        row = self._row_of.get(key)
        if row is None:
            raise KeyError(f"key not resident: {key!r}")
        home, base = self._home(row), row * self.stages
        for dest_stage in range(self.stages):
            if dest_stage == home:
                continue
            dest_way = self._free_way(self._cands[base + dest_stage] & self._cell_mask)
            if dest_way is None or not self._placement_legal(row, dest_stage):
                continue
            self._move(row, dest_stage, dest_way)
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection used by tests and experiments
    # ------------------------------------------------------------------

    def stage_occupancy(self) -> List[int]:
        """Number of resident entries per stage."""
        return list(self._stage_counts)

    def entries(self) -> Iterator[Tuple[int, int, int, bytes, int, int]]:
        """Every resident entry as ``(stage, bucket, way, key, digest,
        value)``, in physical (slot-index) order; cost follows the
        residents."""
        for row in sorted(self._row_of.values(), key=self._slots.__getitem__):
            digest = self._cands[row * self.stages + self._home(row)] >> self._cand_shift
            yield (*self._location(row), self._keys[row], digest, self._values[row])

    def check_invariants(self) -> None:
        """Validate the shadow state against the bucket words (test helper).

        Every ``_row_of`` entry must name a row holding its own key at an
        in-range slot of its own candidate bucket, whose word holds it in
        that way, and matched under its own home triple; words holding no
        more entries than ``_row_of`` (no stale field, no emptied word) and
        ``_match`` no more triples prove nothing is orphaned.  ``_below``
        must hold exactly the digests the residents below their home need;
        free rows hold no key.  The audit costs O(resident), not O(capacity).
        """
        rows, keys, cands, stages = self._row_of, self._keys, self._cands, self.stages
        ways, home, mask, shift = self.ways, self._home, self._cell_mask, self._cand_shift
        counts = [0] * stages
        for key, row in rows.items():
            stage, index = home(row), self._slots[row]
            cell, way = divmod(index, ways)
            word = self._buckets.get(cell, 0)
            if (
                not 0 <= index < self.capacity
                or cands[row * stages + stage] & mask != cell
                or not word >> way & 1
                or self._way_row(word, way) != row
                or keys[row] != key
            ):
                raise AssertionError(
                    f"shadow map out of sync for {key!r}: stage {stage}, index {index}"
                )
            if self._match.get(self._triple(row, stage)) != row:
                raise AssertionError(f"{key!r} is not matched under its own triple")
            counts[stage] += 1
        occupied = 0
        for cell, word in self._buckets.items():
            valid = word & self._full
            if not valid:
                raise AssertionError(f"bucket map kept the emptied bucket {cell}")
            if any(self._way_row(word, w) for w in range(ways) if not valid >> w & 1):
                raise AssertionError(f"bucket {cell} keeps a row in a free way")
            occupied += bin(valid).count("1")
        if occupied != len(rows):
            raise AssertionError(f"slot count {occupied} != shadow count {len(rows)}")
        if len(self._match) != len(rows):
            raise AssertionError(f"{len(self._match)} matched triples, {len(rows)} residents")
        if counts != self._stage_counts:
            raise AssertionError(f"stage counters {self._stage_counts} != recount {counts}")
        needed: Dict[int, List[int]] = {}
        for row in rows.values():
            for item in range(row * stages, row * stages + home(row)):
                needed.setdefault(cands[item] & mask, []).append(cands[item] >> shift)
        for cell, digests in self._below.items():
            if not digests:
                raise AssertionError(f"below-home index kept the empty cell {cell}")
            want = sorted(needed.pop(cell, ()))
            if sorted(digests) != want:
                raise AssertionError(
                    f"cell {cell} registers digests {sorted(digests)}; the "
                    f"residents it is below the home of need {want}"
                )
        if needed:
            raise AssertionError(f"below-home registrations missing at cells {sorted(needed)}")
        free = self._free
        if len(rows) + len(free) != len(keys) or any(keys[r] is not None for r in free):
            raise AssertionError(
                f"free list of {len(free)} rows does not complement "
                f"{len(rows)} residents in {len(keys)} rows"
            )
        # Every resident key's data-plane lookup must find its own entry.
        # (Preserve the measurement counters: this is a checker, not traffic.)
        saved = (self._m_lookups.value, self._m_lookup_fp.value)
        try:
            for key in rows:
                result = self.lookup(key)
                if not result.hit or result.false_positive:
                    raise AssertionError(f"resident key shadowed: {key!r}")
        finally:
            self._m_lookups.value, self._m_lookup_fp.value = saved
