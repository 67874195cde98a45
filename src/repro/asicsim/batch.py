"""Columnar packet-batch representation for the batched replay driver.

The scalar simulator hands the switch one connection at a time; every
layer then re-derives the same per-key facts (per-stage profiles, ECMP
slots) on demand.  The batched driver instead gathers a priming window's
key bytes and base hashes — derived once per workload, when its records
are built (:func:`~repro.asicsim.hashing.base_hash_many`, one CRC pass per
key) — as parallel columns, so the numpy derivations behind
:meth:`~repro.asicsim.cuckoo.CuckooTable.prime_profiles` and
:meth:`~repro.baselines.ecmp.ResilientHashTable.slots_of` (one
:func:`~repro.asicsim.hashing.splitmix64_rows` pass each) run over whole
windows; the arrival walk itself stays the scalar one.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence

from ..netsim.flows import Connection

_KEY = attrgetter("key")
#: A record built without its base hash derives it on this read.
_KEY_HASH = attrgetter("key_hash")


class PacketBatch:
    """A window of connection arrivals in columnar (struct-of-arrays) form:
    ``keys[i]`` and ``base_hashes[i]`` describe the same arrival."""

    __slots__ = ("keys", "base_hashes")

    def __init__(self, keys, base_hashes) -> None:
        self.keys: List[bytes] = keys
        self.base_hashes: List[int] = base_hashes

    @classmethod
    def from_connections(cls, conns: Sequence[Connection]) -> "PacketBatch":
        """The columns of ``conns``, read from the records' own ``key`` /
        ``key_hash`` slots in two C passes.

        Every record a replay or a serve window carries arrives base-hashed
        (:meth:`~repro.netsim.arrivals.ConnectionColumns.records`); a record
        built by hand without its hash derives and caches it here, so any
        later scalar-path access reuses it and the one-byte-pass-per-key
        accounting holds either way.
        """
        return cls(list(map(_KEY, conns)), list(map(_KEY_HASH, conns)))
