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

The table additionally enforces the software invariant that no *resident*
connection's lookup is shadowed by another resident entry: when a placement
would shadow (or be shadowed by) an existing entry, the search avoids it.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

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


def stage_hash_units(
    stages: int, seed: int = DEFAULT_SEED
) -> Tuple[List[HashUnit], List[HashUnit]]:
    """Each stage's independent (index units, digest units) for ``seed``."""
    digest_seed = seed ^ 0xD16E57
    return hash_family(stages, base_seed=seed), hash_family(stages, base_seed=digest_seed)


def buckets_for_capacity(
    capacity: int, target_load: float, ways: int, stages: int
) -> int:
    """Buckets per stage so ``capacity`` entries fit at ``target_load``."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 < target_load <= 1.0:
        raise ValueError("target_load must be in (0, 1]")
    slots_needed = int(capacity / target_load)
    return max(-(-slots_needed // (stages * ways)), 1)


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


class Slot:
    """One occupied table slot (one packed entry in an SRAM word).

    It is also the one software shadow record of its resident: where the
    entry lives (its stage and its slot-map index, the very int object
    that keys it in the map) and its candidate triples in every stage
    (:meth:`CuckooTable._profile`), so a move or a delete re-derives
    nothing.  It keeps no copy of the entry's digest, which is always
    its home stage's triple shifted down (``profile[stage] >>
    _cand_shift``).  Its :class:`Location` is built only when asked for.
    """

    __slots__ = ("key", "value", "stage", "index", "profile")

    def __init__(
        self,
        key: bytes,
        value: int,
        stage: int,
        index: int,
        profile: Tuple[int, ...],
    ) -> None:
        self.key = key
        self.value = value
        self.stage = stage
        self.index = index
        self.profile = profile


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

#: Sort key putting slots in physical order (a bucket's in way order).
_INDEX = attrgetter("index")


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
    fast_fail_load:
        Load factor above which insertions fail immediately instead of
        running the BFS (saturated-table protection).  Set to 1.0 to
        always search (occupancy ablations do).
    profile_cache_size:
        Bound on the LRU side cache of non-resident key profiles (keys
        mid-insertion or being probed).  Eviction is per-entry LRU, not
        a wholesale clear, so BFS inserts under churn don't thrash.
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
        fast_fail_load: float = 0.98,
        seed: int = DEFAULT_SEED,
        profile_cache_size: int = 16384,
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
        if not 0.0 < fast_fail_load <= 1.0:
            raise ValueError("fast_fail_load must be in (0, 1]")
        self.fast_fail_load = fast_fail_load
        # Occupancy above which insert() fails without running the BFS; a
        # fast_fail_load of 1.0 disables the shortcut.
        capacity = stages * buckets_per_stage * ways
        self._fast_fail_entries = (
            int(capacity * fast_fail_load) if fast_fail_load < 1.0 else capacity + 1
        )
        # Each stage gets an independent index hash and digest hash; all of
        # them derive from the same single-pass base hash with per-unit
        # seeded mixing (see repro.asicsim.hashing).
        self._index_units, self._digest_units = stage_hash_units(stages, seed)
        # A candidate (stage, bucket, digest) triple is packed into one int,
        # ``digest << shift | (stage * buckets + bucket)``: its low bits are
        # the bucket's cell in the slot map below, and an int hashes far
        # cheaper than a tuple on the hottest paths (lookup's fast miss,
        # registration per insert / delete).
        self._stage_offsets: List[int] = [
            s * buckets_per_stage for s in range(stages)
        ]
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
        # The slot map holds occupied slots only: entry (stage, bucket, way)
        # lives at index ``(stage * buckets_per_stage + bucket) * ways +
        # way``, and an absent index is a free slot.  An empty table costs
        # the same whatever its capacity.
        self._column: Dict[int, Slot] = {}
        #: Resident entries per stage, maintained on place / move / delete.
        self._stage_counts: List[int] = [0] * stages
        # Software shadow state, one record per resident: full key -> its
        # Slot, which knows its location and candidate triples.
        self._where: Dict[bytes, Slot] = {}
        if profile_cache_size <= 0:
            raise ValueError("profile_cache_size must be positive")
        self.profile_cache_size = profile_cache_size
        self._profile_cache: "OrderedDict[bytes, Tuple[int, ...]]" = OrderedDict()
        self.profile_cache_evictions = 0
        # Candidate triple -> the resident key registered under it, so
        # collision checks are O(stages) instead of O(n).  A resident is
        # registered under its triples of stages 0..home only: every reader
        # (the bucket scan, digest twins, placement legality) ignores an
        # owner whose home is earlier than the triple's stage.  The value is
        # the key itself; it becomes a set of keys only while two or more
        # residents really share the triple, and is demoted back to the
        # survivor when the others leave.
        self._candidates: Dict[int, Union[bytes, Set[bytes]]] = {}
        if metrics is None:
            metrics = MetricRegistry().scope("")
        self._m_lookups = metrics.counter(
            "lookups_total", "data-plane digest lookups"
        )
        self._m_lookup_fp = metrics.counter(
            "lookup_false_positives_total", "digest matches on a different key"
        )
        self._m_insert_attempts = metrics.counter(
            "insert_attempts_total", "software insertion attempts"
        )
        self._m_inserts = metrics.counter(
            "inserts_total", "successful insertions"
        )
        self._m_insert_failures = metrics.counter(
            "insert_failures_total", "insertions rejected (table full)"
        )
        self._m_moves = metrics.counter(
            "cuckoo_moves_total", "entries moved by the cuckoo BFS"
        )
        self._m_moves_hist = metrics.histogram(
            "cuckoo_moves_per_insert",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            help="BFS moves needed per successful insertion",
        )
        self._m_relocations = metrics.counter(
            "collision_relocations_total", "digest-twin relocations before insert"
        )
        self._m_deletes = metrics.counter(
            "deletes_total", "entry removals (connection expiry)"
        )
        metrics.gauge("occupancy", "resident entries").set_function(
            lambda: float(len(self._where))
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
        return len(self._where) / self.capacity if self.capacity else 0.0

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: bytes) -> bool:
        return key in self._where

    def keys(self) -> Iterator[bytes]:
        return iter(self._where)

    # ------------------------------------------------------------------
    # Per-key geometry
    # ------------------------------------------------------------------

    def _profile(self, key: bytes, key_hash: Optional[int] = None) -> Tuple[int, ...]:
        """Candidate triple of a *non-resident* key in every stage, encoded.

        One single-pass derivation: the key is byte-hashed once (or not at
        all, when the caller supplies a cached ``key_hash`` base), then every
        stage's bucket index and digest come from cheap seeded integer
        mixing of that base.

        A resident's profile rides on its :class:`Slot`; a bounded LRU side
        cache covers keys being probed or mid-insertion (the arrival looks
        the key up, the install inserts it and drops it from the cache)
        without the re-hash storms a wholesale clear would cause under churn.
        """
        cache = self._profile_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        profile = self._derive_profile(base_hash(key) if key_hash is None else key_hash)
        self._cache_profile(key, profile)
        return profile

    def _derive_profile(self, base: int) -> Tuple[int, ...]:
        """The scalar derivation: a base hash's candidate triples."""
        buckets, cshift = self.buckets_per_stage, self._cand_shift
        return tuple(
            (_splitmix64(base ^ digest_mix) >> shift) << cshift
            | (offset + _splitmix64(base ^ index_mix) % buckets)
            for index_mix, digest_mix, shift, offset in self._stage_mixes
        )

    def _cache_profile(self, key: bytes, profile: Tuple[int, ...]) -> None:
        """Admit an uncached key to the LRU side cache, evicting the oldest."""
        cache = self._profile_cache
        if len(cache) >= self.profile_cache_size:
            cache.popitem(last=False)
            self.profile_cache_evictions += 1
        cache[key] = profile

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
        where = self._where
        cache = self._profile_cache
        missing_keys: List[bytes] = []
        missing_bases: List[int] = []
        seen: Set[bytes] = set()
        for key, base in zip(keys, key_hashes):
            if key in where or key in cache or key in seen:
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
        for key, base in zip(keys, key_hashes):
            if key in where:
                continue
            if key in cache or key not in computed:
                # A hit refreshes the LRU position.  A key that was cached
                # during the first pass but has been evicted since by this
                # batch's own admissions is in neither: derive it the
                # scalar way.
                self._profile(key, base)
            else:
                self._cache_profile(key, computed[key])

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
        slot = self._where.get(key)
        profile = self._profile(key, key_hash) if slot is None else slot.profile
        # Fast miss: every slot whose digest could match is owned by a key
        # registered under the same (stage, bucket, digest) triple, so if
        # no such key exists in any stage the scan cannot hit.
        if self._candidates.keys().isdisjoint(profile):
            return _MISS
        return self._scan(key, profile)

    def _scan(self, key: bytes, profile) -> LookupResult:
        """The bucket scan behind :meth:`lookup`'s fast-miss filter
        (false-positive accounting happens here).

        Answered from the candidate index: the slots of bucket (s, b) that
        hold digest d are exactly the residents registered under triple
        (s, b, d) that live in stage s, and the lowest way among them is
        the one the hardware's in-order scan would hit."""
        candidates, where = self._candidates, self._where
        for stage, cand in enumerate(profile):
            owners = candidates.get(cand)
            if owners is None:
                continue
            if type(owners) is set:
                matches = self._matches(stage, owners)
                if not matches:
                    continue
                slot = matches[0]
            else:
                slot = where[owners]
                if slot.stage != stage:
                    continue
            fp = slot.key != key
            if fp:
                self._m_lookup_fp.value += 1.0
            return LookupResult(
                hit=True,
                value=slot.value,
                location=self._location(slot),
                false_positive=fp,
            )
        return _MISS

    def _matches(self, stage: int, owners) -> List[Slot]:
        """The slots holding a candidate triple's digest in its bucket of
        ``stage``, in way order: those of its registered ``owners`` (a key
        or a set of keys) that live in that stage."""
        where = self._where
        if type(owners) is not set:
            slot = where[owners]
            return [slot] if slot.stage == stage else []
        return sorted(
            (slot for slot in map(where.__getitem__, owners) if slot.stage == stage),
            key=_INDEX,
        )

    def get_exact(self, key: bytes) -> Optional[int]:
        """Software (full-key) lookup; no false positives."""
        slot = self._where.get(key)
        return None if slot is None else slot.value

    def location_of(self, key: bytes) -> Optional[Location]:
        slot = self._where.get(key)
        return None if slot is None else self._location(slot)

    def key_at(self, location: Location) -> Optional[bytes]:
        """Full key of the entry at ``location``; ``None`` for a free slot."""
        slot = self._column.get(self._index(location))
        return None if slot is None else slot.key

    def _index(self, loc: Location) -> int:
        """Slot-map index of a physical location."""
        return (self._stage_offsets[loc[0]] + loc[1]) * self.ways + loc[2]

    def _location(self, slot: Slot) -> Location:
        """Physical location of a resident's slot."""
        cell, way = divmod(slot.index, self.ways)
        return Location(slot.stage, cell - self._stage_offsets[slot.stage], way)

    # ------------------------------------------------------------------
    # Placement legality (software invariant)
    # ------------------------------------------------------------------

    def _placement_legal(self, key: bytes, stage: int, profile) -> bool:
        """Whether storing ``key`` at ``stage`` keeps every lookup unambiguous.

        A read-only question answered from the shadow maps alone: a resident
        whose stored digest matches ``key``'s in one of its candidate buckets
        is registered under the same (stage, bucket, digest) triple.  One
        living in an *earlier* candidate stage, or in the same bucket of
        ``stage`` itself, would be hit first and shadow ``key``; one living
        in a *later* stage would be shadowed by it; either way the owner's
        home is no earlier than the triple's stage, so it is registered
        there.  ``key``'s own registrations are skipped, so the same check
        serves a resident being moved — its vacated slot needs no
        blanking.
        """
        candidates, where = self._candidates, self._where
        for t in range(stage + 1):
            owners = candidates.get(profile[t])
            if owners is None:
                continue
            for other in owners if type(owners) is set else (owners,):
                if other != key:
                    home = where[other].stage
                    if home == t or (t == stage and home > t):
                        return False
        return True

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------

    def _move(self, slot: Slot, stage: int, cell: int, way: int) -> None:
        """Re-home a resident's ``slot`` in the free ``way`` of bucket
        ``cell`` of ``stage``; its digest becomes that stage's (read off the
        profile), and the key is registered under exactly its triples of
        stages 0..``stage``."""
        col = self._column
        del col[slot.index]
        home = slot.stage
        self._stage_counts[home] -= 1
        if stage > home:
            self._register(slot.key, slot.profile[home + 1 : stage + 1])
        elif stage < home:
            self._unregister(slot.key, slot.profile[stage + 1 : home + 1])
        slot.stage = stage
        slot.index = index = cell * self.ways + way
        col[index] = slot
        self._stage_counts[stage] += 1

    def _register(self, key: bytes, cands) -> None:
        """Add ``key`` as an owner of each candidate triple in ``cands``."""
        candidates = self._candidates
        for cand in cands:
            owner = candidates.get(cand)
            if owner is None:
                candidates[cand] = key
            elif type(owner) is set:
                owner.add(key)
            else:
                candidates[cand] = {owner, key}

    def _unregister(self, key: bytes, cands) -> None:
        """Remove ``key``'s ownership of each candidate triple in ``cands``."""
        candidates = self._candidates
        for cand in cands:
            owner = candidates[cand]
            if type(owner) is set:
                owner.remove(key)
                if len(owner) == 1:
                    candidates[cand] = owner.pop()
            else:
                del candidates[cand]

    def _free_way(self, cell: int) -> Optional[int]:
        """First free way of bucket ``cell`` (stage offset + bucket)."""
        col = self._column
        base = cell * self.ways
        for way in range(self.ways):
            if base + way not in col:
                return way
        return None

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
        where = self._where
        if key in where:
            raise DuplicateKey(f"key already resident: {key!r}")
        self._m_insert_attempts.value += 1.0
        # Fast-fail when the table is effectively packed: running the BFS
        # for every arrival at a saturated table would burn the switch CPU
        # (and the simulator) for nothing.
        if len(where) >= self._fast_fail_entries:
            self._m_insert_failures.value += 1.0
            raise TableFull(
                f"table effectively full ({len(where)}/{self.capacity})"
            )
        profile = self._profile(key, key_hash)
        candidates = self._candidates
        # Only a resident registered under one of the key's own triples can
        # be its digest twin or make a placement illegal; with none (nearly
        # every insert) the first free candidate slot is the answer.
        contested = not candidates.keys().isdisjoint(profile)
        if contested:
            # A resident digest twin in one of the key's candidate buckets
            # shadows every legal placement; the switch software resolves
            # the collision by relocating the resident entry to another
            # stage (the same fix the redirected-SYN path performs, §4.2).
            for twin in self._digest_twins(key, profile):
                if self.relocate(twin):
                    self._m_relocations.value += 1.0

        free_way, mask = self._free_way, self._cell_mask
        moves = 0
        for stage, cand in enumerate(profile):
            # Fast path: a free, legal slot in some candidate bucket.
            way = free_way(cand & mask)
            if way is not None and (
                not contested or self._placement_legal(key, stage, profile)
            ):
                break
        else:
            # BFS over move sequences; every legal candidate bucket is
            # now known to be full.
            for path in self._bfs_paths(key, profile):
                applied = self._apply_move_path(key, profile, path)
                if applied is not None:
                    break
            else:
                self._m_insert_failures.value += 1.0
                raise TableFull(
                    f"no slot for key after BFS over {MAX_BFS_NODES} nodes "
                    f"(load {self.load_factor:.3f})"
                )
            stage, way, moves = applied

        cand = profile[stage]
        cell = cand & mask
        index = cell * self.ways + way
        self._column[index] = where[key] = Slot(key, value, stage, index, profile)
        # Its profile rides on the Slot now; the LRU keeps in-flight keys only.
        self._profile_cache.pop(key, None)
        self._stage_counts[stage] += 1
        self._register(key, profile[: stage + 1])
        self._m_inserts.value += 1.0
        self._m_moves.value += moves
        self._m_moves_hist.observe(float(moves))
        bucket = cell - self._stage_offsets[stage]
        location = _new_record(Location, (stage, bucket, way))
        return _new_record(InsertResult, (location, moves))

    def _digest_twins(self, key: bytes, profile) -> List[bytes]:
        """Resident keys whose stored digest collides with ``key`` in one of
        its candidate buckets (they would shadow any placement of it)."""
        twins: List[bytes] = []
        candidates = self._candidates
        for stage, cand in enumerate(profile):
            # A twin slot's owner is always registered under this
            # candidate triple (see :meth:`_scan`).
            owners = candidates.get(cand)
            if owners is not None:
                twins.extend(slot.key for slot in self._matches(stage, owners))
        return twins

    def _bfs_paths(self, key: bytes, profile) -> Iterator[list]:
        """Move sequences that would free a slot for ``key``, nearest first.

        Buckets are named by their cell (stage offset + bucket).  Each path
        is the ``(stage, cell)`` that receives the new key followed by the
        ``(src_cell, way, dest_stage, dest_cell)`` moves that free a slot
        there, in path order (:meth:`_apply_move_path` applies them deepest
        first).  Legality is judged against the table as it stands, so a
        path is only a proposal: the search resumes if applying it fails.
        """
        # Each frontier node: (stage, cell, parent_index, way_moved_from_parent)
        frontier: List[Tuple[int, int, int, Optional[int]]] = []
        seen: Set[int] = set()
        queue: deque = deque()
        mask = self._cell_mask
        for stage, cand in enumerate(profile):
            if not self._placement_legal(key, stage, profile):
                continue
            frontier.append((stage, cand & mask, -1, None))
            queue.append(len(frontier) - 1)
            seen.add(cand & mask)

        col, ways = self._column, self.ways
        nodes_explored = 0
        while queue and nodes_explored < MAX_BFS_NODES:
            idx = queue.popleft()
            stage, cell, _parent, _way = frontier[idx]
            nodes_explored += 1
            # Try to extend: each resident of this bucket could move to one of
            # its candidate buckets in other stages.  A queued bucket is
            # known to be full (the roots failed insert's fast path, the
            # rest failed the free-way test below), so no way is probed
            # for being free.
            base = cell * ways
            for way in range(ways):
                slot = col[base + way]
                for dest_stage, dest_cand in enumerate(slot.profile):
                    if dest_stage == stage:
                        continue
                    dest_cell = dest_cand & mask
                    if dest_cell in seen:
                        continue
                    if not self._placement_legal(slot.key, dest_stage, slot.profile):
                        continue
                    frontier.append((dest_stage, dest_cell, idx, way))
                    seen.add(dest_cell)
                    if self._free_way(dest_cell) is not None:
                        yield self._reconstruct_path(frontier, len(frontier) - 1)
                    else:
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

    def _apply_move_path(self, key: bytes, profile, path):
        """Apply a path's moves deepest-first, each one only if it is legal
        against the table as the moves before it left it, then check that
        ``key`` may take the freed slot.  Returns ``(stage, way, moves)``
        for the new key; on any illegal step the applied moves are undone
        in reverse and the answer is ``None``."""
        col, ways, per_stage = self._column, self.ways, self.buckets_per_stage
        done: List[Tuple[Slot, int, int]] = []
        for src_cell, way, dst_stage, dst_cell in reversed(path[1:]):
            slot = col[src_cell * ways + way]
            # The search judged the deepest move against this very table.
            if done and not self._placement_legal(slot.key, dst_stage, slot.profile):
                break
            self._move(slot, dst_stage, dst_cell, self._free_way(dst_cell))
            done.append((slot, src_cell, way))
        else:
            stage, cell = path[0]
            if self._placement_legal(key, stage, profile):
                return stage, self._free_way(cell), len(done)
        for slot, src_cell, way in reversed(done):
            self._move(slot, src_cell // per_stage, src_cell, way)
        return None

    # ------------------------------------------------------------------
    # Update / delete / relocate
    # ------------------------------------------------------------------

    def update(self, key: bytes, value: int) -> None:
        """Rewrite the action data of a resident entry in place."""
        slot = self._where.get(key)
        if slot is None:
            raise KeyError(f"key not resident: {key!r}")
        slot.value = value

    def delete(self, key: bytes) -> None:
        """Remove a resident entry (connection expiry)."""
        slot = self._where.pop(key, None)
        if slot is None:
            raise KeyError(f"key not resident: {key!r}")
        del self._column[slot.index]
        self._stage_counts[slot.stage] -= 1
        self._unregister(key, slot.profile[: slot.stage + 1])
        self._m_deletes.value += 1.0

    def relocate(self, key: bytes) -> bool:
        """Move a resident entry to a different stage.

        Used by the control plane to resolve a digest collision detected via
        a redirected TCP SYN: the *existing* colliding entry is moved to a
        stage where the two connections hash apart.  Returns ``True`` on
        success.
        """
        slot = self._where.get(key)
        if slot is None:
            raise KeyError(f"key not resident: {key!r}")
        profile = slot.profile
        for dest_stage, cand in enumerate(profile):
            if dest_stage == slot.stage:
                continue
            dest_cell = cand & self._cell_mask
            dest_way = self._free_way(dest_cell)
            if dest_way is None or not self._placement_legal(key, dest_stage, profile):
                continue
            self._move(slot, dest_stage, dest_cell, dest_way)
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
        shift = self._cand_shift
        for slot in sorted(self._where.values(), key=_INDEX):
            digest = slot.profile[slot.stage] >> shift
            yield (*self._location(slot), slot.key, digest, slot.value)

    def check_invariants(self) -> None:
        """Validate shadow state against the slot map (test helper).

        Every ``_where`` entry must be the Slot sitting at its own in-range
        index, inside its own stage, holding its own key; distinct keys then
        occupy distinct slots, so a slot map no larger than ``_where``
        proves no slot is orphaned.  The candidate index is audited from its
        own side: every registration must name a resident under one of that
        resident's triples at a stage no later than its home, and
        ``home + 1`` registrations per resident then proves none is missing.
        The whole audit costs O(resident), not O(capacity).
        """
        col, where = self._column, self._where
        stage_slots = self.buckets_per_stage * self.ways
        counts = [0] * self.stages
        for key, slot in where.items():
            stage, index = slot.stage, slot.index
            if (
                not 0 <= index < self.capacity
                or index // stage_slots != stage
                or col.get(index) is not slot
                or slot.key != key
            ):
                raise AssertionError(
                    f"shadow map out of sync for {key!r}: stage {stage}, index {index}"
                )
            counts[stage] += 1
        if len(col) != len(where):
            raise AssertionError(
                f"slot count {len(col)} != shadow count {len(where)}"
            )
        if counts != self._stage_counts:
            raise AssertionError(
                f"stage counters {self._stage_counts} != recount {counts}"
            )
        registrations = 0
        for cand, owners in self._candidates.items():
            if type(owners) is not set:
                owners = (owners,)
            elif len(owners) < 2:
                raise AssertionError(f"candidate {cand:#x} kept a set for {owners!r}")
            for key in owners:
                slot = where.get(key)
                if slot is None or cand not in slot.profile:
                    raise AssertionError(
                        f"candidate {cand:#x} registers {key!r}, which is not "
                        "a resident with that triple"
                    )
                if cand not in slot.profile[: slot.stage + 1]:
                    raise AssertionError(
                        f"candidate {cand:#x} registers {key!r} above its "
                        f"home stage {slot.stage}"
                    )
            registrations += len(owners)
        expected = sum(slot.stage + 1 for slot in where.values())
        if registrations != expected:
            raise AssertionError(
                f"{registrations} candidate registrations for {len(where)} "
                f"residents, whose homes need {expected}"
            )
        # Every resident key's data-plane lookup must find its own entry.
        # (Preserve the measurement counters: this is a checker, not traffic.)
        saved = (self._m_lookups.value, self._m_lookup_fp.value)
        try:
            for key in where:
                result = self.lookup(key)
                if not result.hit or result.false_positive:
                    raise AssertionError(f"resident key shadowed: {key!r}")
        finally:
            self._m_lookups.value, self._m_lookup_fp.value = saved
