"""Columnar packet-batch representation for the batched replay driver.

The scalar simulator hands the switch one connection at a time; every
layer then re-derives the same per-key facts (key bytes, the 64-bit base
hash, per-stage profiles) on demand.  The batched driver instead
materializes the key bytes and base hashes *once per priming window* as
parallel columns, so the vectorized primitives
(:func:`~repro.asicsim.hashing.base_hash_many`,
:meth:`~repro.asicsim.cuckoo.CuckooTable.prime_profiles`) run over whole
windows; the arrival walk itself stays the scalar one.
"""

from __future__ import annotations

from typing import List, Sequence

from ..netsim.flows import Connection
from .hashing import base_hash_many

#: The ``key_hash`` slot read bare: ``AttributeError`` on a record nothing
#: has hashed yet, where ``conn.key_hash`` would hash it on the spot.
_cached_hash = Connection.key_hash.__get__


class PacketBatch:
    """A window of connection arrivals in columnar (struct-of-arrays) form:
    ``keys[i]`` and ``base_hashes[i]`` describe the same arrival."""

    __slots__ = ("keys", "base_hashes")

    def __init__(self, keys, base_hashes) -> None:
        self.keys: List[bytes] = keys
        self.base_hashes: List[int] = base_hashes

    @classmethod
    def from_connections(cls, conns: Sequence[Connection]) -> "PacketBatch":
        """Build the columns, computing and caching each conn's key facts.

        Key bytes and base hashes are read from, or written back to, the
        connections' own ``key`` / ``key_hash`` slots, so any later
        scalar-path access — a delegated arrival, a relearn, an audit —
        reuses them instead of re-hashing.  Hashes for keys not yet cached
        are derived in one :func:`base_hash_many` bulk pass, which keeps
        the one-byte-pass-per-connection accounting identical to the
        scalar path.
        """
        keys: List[bytes] = [conn.key for conn in conns]
        try:
            # Hot as a whole — a replay's ``fresh()`` copies, a streamed
            # window — is one C pass with nothing raised.
            return cls(keys, list(map(_cached_hash, conns)))
        except AttributeError:
            pass
        hashes: List[int] = [0] * len(conns)
        missing: List[int] = []
        for i, conn in enumerate(conns):
            try:
                hashes[i] = _cached_hash(conn)
            except AttributeError:
                missing.append(i)
        if missing:
            bulk = base_hash_many([keys[i] for i in missing])
            for i, h in zip(missing, bulk):
                hashes[i] = conns[i].key_hash = h
        return cls(keys, hashes)
