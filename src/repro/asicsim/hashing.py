"""Hash units of a switching ASIC.

Modern switching ASICs ship a set of generic hash units (used for ECMP, LAG,
checksum offload, exact-match table addressing, ...).  SilkRoad uses them for

* addressing the multi-way cuckoo stages of ConnTable (one independent hash
  function per physical stage),
* computing the compact *digest* stored in ConnTable instead of the 5-tuple,
* addressing the TransitTable Bloom filter.

This module models those units as a **single-pass hash pipeline**, mirroring
how a real ASIC hash block extracts the key fields once and feeds the result
to every consumer:

* :func:`base_hash` performs the one byte pass over the key — two CRCs with
  *different polynomials* (CRC-32 and CRC-16/CCITT) combined with the key
  length into a 64-bit base value.  This deliberately deviates from the
  per-unit CRC polynomials of real hash blocks: a single 32-bit CRC funnel
  would make two colliding keys collide in *every* stage, digest and Bloom
  way simultaneously, violating the independent-hash assumption behind the
  paper's §5.1 digest-collision analysis.  Two distinct polynomials push the
  correlated-collision probability to ~2^-48 per key pair.
* Each :class:`HashUnit` then *derives* its value from the base with one
  seeded splitmix64 finalizer round — cheap integer mixing, no further byte
  hashing.  Callers that already know a key's base hash (a cached
  ``Connection.key_hash``) pass it via the ``key_hash`` parameter and skip
  the byte pass entirely.

Two units with different seeds behave as independent hash functions over the
shared base, which preserves the per-stage/per-way independence the cuckoo
and Bloom analyses assume.

Batched consumers derive a whole window in one pass: :func:`splitmix64_rows`
applies every seed mix they need (a ConnTable's index and digest units of
every stage, a Bloom filter's ways, an ECMP group's slot unit) to a column
of base hashes with numpy, bit-identical to the scalar rounds.
"""

from __future__ import annotations

import binascii
import zlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

#: Byte passes performed since import (one per :func:`base_hash` call).
#: Tests and benchmarks read this to assert the "one byte pass per key"
#: property of the single-pass pipeline; it is never reset by this module.
BASE_HASH_CALLS = 0


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(value: int, seed: int = 0) -> int:
    """Mix a 64-bit integer with a seed into a well-distributed 64-bit hash."""
    return _splitmix64((value ^ _splitmix64(seed & _MASK64)) & _MASK64)


def base_hash_many(keys) -> list[int]:
    """Base hashes for a whole batch of keys (one byte pass per key).

    Semantically ``[base_hash(k) for k in keys]`` — same values, same
    ``BASE_HASH_CALLS`` accounting — with the attribute lookups hoisted
    out of the loop for the columnar hot path.
    """
    global BASE_HASH_CALLS
    BASE_HASH_CALLS += len(keys)
    crc32 = zlib.crc32
    crc_hqx = binascii.crc_hqx
    mask = _MASK64
    return [
        ((crc32(k) << 32) ^ (crc_hqx(k, 0xFFFF) << 13) ^ len(k)) & mask
        for k in keys
    ]


#: :func:`splitmix64_rows`' constants as uint64 scalars, built once.
_GAMMA, _M1, _M2 = (
    np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def splitmix64_rows(bases, mixes) -> np.ndarray:
    """Every seed mix of ``mixes`` applied to every base of ``bases``.

    Returns the uint64 array of shape ``(len(mixes), len(bases))``,
    bit-identical to ``[[_splitmix64(b ^ m) for b in bases] for m in
    mixes]``: uint64 arithmetic wraps modulo 2**64 exactly like the masked
    Python-int rounds.  One call derives every unit a consumer needs for a
    whole window (row ``i`` is ``mixes[i]``'s unit); callers do their
    modulo / shift work on the array and ``tolist()`` at the end, which
    yields plain Python ints.
    """
    # Array (never scalar) uint64 arithmetic: it wraps without a warning.
    x = np.array(bases, dtype=np.uint64) ^ np.array(mixes, dtype=np.uint64)[:, None]
    x += _GAMMA
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def base_hash(key: bytes) -> int:
    """The single byte pass of the pipeline: key bytes -> 64-bit base value.

    CRC-32 fills bits 32-63, CRC-16/CCITT bits 13-28, the key length the low
    bits; the fields do not overlap for the key sizes a load balancer hashes.
    Avalanche is provided by the seeded splitmix64 round every derivation
    applies on top, so the base itself only needs to separate keys.
    """
    global BASE_HASH_CALLS
    BASE_HASH_CALLS += 1
    return (
        (zlib.crc32(key) << 32)
        ^ (binascii.crc_hqx(key, 0xFFFF) << 13)
        ^ len(key)
    ) & _MASK64


@dataclass(frozen=True)
class HashUnit:
    """A single seeded hash function, as provided by the ASIC's hash blocks.

    Two units with different seeds behave as independent hash functions; the
    ASIC similarly lets each physical stage use a distinct polynomial.  All
    units derive from the shared :func:`base_hash` with one seeded mixing
    round, so ``unit.hash_bytes(key) == unit.derive(base_hash(key))`` always
    holds — callers holding a cached base hash get identical results without
    re-hashing the bytes.
    """

    seed: int

    def __post_init__(self) -> None:
        # Pre-mix the seed once; ``derive`` then costs a single splitmix
        # round.  (frozen dataclass: set via object.__setattr__.)
        object.__setattr__(self, "seed_mix", _splitmix64(self.seed & _MASK64))

    def derive(self, base: int) -> int:
        """Derive this unit's 64-bit value from a key's base hash."""
        return _splitmix64((base ^ self.seed_mix) & _MASK64)

    def hash_bytes(self, key: bytes, key_hash: int | None = None) -> int:
        """Hash a byte-string key to a 64-bit value.

        ``key_hash`` short-circuits the byte pass with a precomputed
        :func:`base_hash` of the same key.
        """
        return self.derive(base_hash(key) if key_hash is None else key_hash)

    def index(self, key: bytes, size: int, key_hash: int | None = None) -> int:
        """Map a key to a table index in ``[0, size)``."""
        if size <= 0:
            raise ValueError("table size must be positive")
        return self.hash_bytes(key, key_hash) % size

    def index_base(self, base: int, size: int) -> int:
        """Map a precomputed base hash to a table index in ``[0, size)``."""
        if size <= 0:
            raise ValueError("table size must be positive")
        return self.derive(base) % size

    def digest(self, key: bytes, bits: int, key_hash: int | None = None) -> int:
        """Compute a ``bits``-wide digest of a key.

        SilkRoad stores this digest in ConnTable instead of the full 5-tuple
        (16 bits by default, versus 296 bits for an IPv6 5-tuple).
        """
        if not 1 <= bits <= 64:
            raise ValueError("digest width must be in [1, 64]")
        # Use the high bits: they are the best mixed bits of splitmix64, and
        # they are disjoint from the low bits a small table index consumes,
        # keeping digest and index roughly independent as in real designs.
        return self.hash_bytes(key, key_hash) >> (64 - bits)

    def digest_base(self, base: int, bits: int) -> int:
        """Compute a ``bits``-wide digest from a precomputed base hash."""
        if not 1 <= bits <= 64:
            raise ValueError("digest width must be in [1, 64]")
        return self.derive(base) >> (64 - bits)


#: Base seed of a hash family built without one.  A CuckooTable's (and so
#: the ConnTable's) per-stage hash units derive from it by default.
DEFAULT_SEED = 0x51CC_0AD0


def hash_family(count: int, base_seed: int = DEFAULT_SEED) -> list[HashUnit]:
    """Create ``count`` independent hash units.

    Used to give every cuckoo stage, and every Bloom-filter way, its own
    hash function.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [HashUnit(seed=mix64(i, base_seed)) for i in range(count)]
