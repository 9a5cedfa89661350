"""Hash functions used by the replicated DHT.

The paper replicates each pair ``(k, data)`` under a set ``Hr`` of *pairwise
independent* hash functions and uses one extra hash function ``h_ts`` to choose
the peer responsible for timestamping a key (Section 3.1 and 4.1).  The paper
points to Luby's construction of pairwise-independent families; we implement
the classical Carter–Wegman family

    h_{a,b}(x) = ((a * x + b) mod p) mod 2^bits

over a Mersenne prime ``p`` larger than the key digest space.  Keys of any
hashable Python type are first mapped to an integer digest with SHA-1 (the
digest plays the role of ``x``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, List, Optional

__all__ = [
    "DIGEST_BITS",
    "HashFamily",
    "PairwiseIndependentHash",
    "key_digest",
]

#: Number of bits of the SHA-1 digest used as the integer representation of keys.
DIGEST_BITS = 160

#: Mersenne prime 2^521 - 1, comfortably larger than the 160-bit digest space so
#: the Carter-Wegman construction is exactly pairwise independent over digests.
_PRIME = (1 << 521) - 1

#: Bound of the memoisation caches.  Key digests are shared process-wide (the
#: digest of a key is independent of the hash function); per-function point
#: caches live on each :class:`PairwiseIndependentHash` instance.
_DIGEST_CACHE_SIZE = 1 << 16
_POINT_CACHE_SIZE = 1 << 16


def _compute_digest(key: Any) -> int:
    if isinstance(key, bytes):
        payload = b"bytes:" + key
    elif isinstance(key, str):
        payload = b"str:" + key.encode("utf-8")
    elif isinstance(key, bool):
        payload = b"bool:" + str(key).encode("ascii")
    elif isinstance(key, int):
        payload = b"int:" + str(key).encode("ascii")
    else:
        payload = b"repr:" + repr(key).encode("utf-8", "backslashreplace")
    return int.from_bytes(hashlib.sha1(payload).digest(), "big")


#: Key types eligible for memoisation: exactly those whose payload is a
#: function of type + equality.  For anything else (floats, tuples, arbitrary
#: objects) two ``==``-equal keys of the same type can still have different
#: ``repr`` payloads — e.g. ``0.0`` and ``-0.0`` — so caching by equality
#: would make the digest depend on evaluation order.
_CACHEABLE_KEY_TYPES = (bytes, str, bool, int)


@lru_cache(maxsize=_DIGEST_CACHE_SIZE)
def _cached_digest(typed_key: tuple) -> int:
    # The cache key is ``(type(key), key)`` rather than the bare key: ``lru_cache``
    # compares keys with ``==``, and ``True == 1`` while their payloads (hence
    # digests) differ.
    return _compute_digest(typed_key[1])


def key_digest(key: Any) -> int:
    """Map an arbitrary key to a deterministic ``DIGEST_BITS``-bit integer.

    The mapping is stable across processes and Python versions (it does not use
    the built-in ``hash``), which makes stored data and test expectations
    reproducible.  Digests of ``bytes``/``str``/``bool``/``int`` keys — the
    only types whose payload is fully determined by type and equality — are
    memoised in a bounded LRU shared by every hash function, so re-deriving
    the SHA-1 of a hot key is a dictionary hit instead of a hash computation.
    Other key types are always computed fresh.

    Parameters
    ----------
    key:
        Any object with a stable ``str`` representation.  Bytes are hashed
        as-is; other objects are hashed through ``repr`` of their type-tagged
        string form so that ``1`` and ``"1"`` digest differently.
    """
    if isinstance(key, _CACHEABLE_KEY_TYPES):
        return _cached_digest((type(key), key))
    return _compute_digest(key)


@dataclass(frozen=True)
class PairwiseIndependentHash:
    """A single Carter–Wegman hash function ``h(x) = ((a·x + b) mod p) mod 2^bits``.

    Instances are immutable and hashable so they can be used as dictionary
    keys (the network indexes stored values by the hash function that placed
    them).

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"hr-3"`` or ``"h-ts"``.  Names are
        what the storage layer keys on, so two functions with the same name are
        considered the same placement function.
    a, b:
        Coefficients of the affine map.  ``a`` must be non-zero modulo ``p``.
    bits:
        Size of the output identifier space: outputs lie in ``[0, 2^bits)``.
    """

    name: str
    a: int
    b: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 512:
            raise ValueError(f"bits must be in [1, 512], got {self.bits}")
        if self.a % _PRIME == 0:
            raise ValueError("coefficient 'a' must be non-zero modulo p")
        # Precomputed evaluation state, kept out of the dataclass fields so
        # equality/hashing still compare only (name, a, b, bits).  The output
        # space is a power of two, so the final reduction is a bitmask.
        object.__setattr__(self, "_a_reduced", self.a % _PRIME)
        object.__setattr__(self, "_b_reduced", self.b % _PRIME)
        object.__setattr__(self, "_mask", (1 << self.bits) - 1)
        object.__setattr__(self, "_points", {})

    @property
    def space_size(self) -> int:
        """Number of points in the output identifier space (``2^bits``)."""
        return 1 << self.bits

    def point(self, key: Any) -> int:
        """Return the identifier-space point for ``key`` (alias of ``__call__``)."""
        return self(key)

    def _evaluate(self, key: Any) -> int:
        return ((self._a_reduced * key_digest(key) + self._b_reduced)
                % _PRIME) & self._mask

    def __call__(self, key: Any) -> int:
        # Per-(function, key) memoisation: the placement of a key never
        # changes, so the 521-bit Carter-Wegman reduction runs once per hot
        # key.  Only types whose payload is a function of type + equality are
        # cached (see ``_CACHEABLE_KEY_TYPES``).  The memo key is type-tagged
        # because ``True == 1`` but their digests differ; an exact ``str``
        # keys by itself, since no str equals a tag tuple.
        if type(key) is str:
            memo_key: Any = key
        elif isinstance(key, _CACHEABLE_KEY_TYPES):
            memo_key = (type(key), key)
        else:
            return self._evaluate(key)
        points = self._points
        cached = points.get(memo_key)
        if cached is None:
            cached = self._evaluate(key)
            if len(points) >= _POINT_CACHE_SIZE:
                points.clear()
            points[memo_key] = cached
        return cached

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def points_many(self, keys: Iterable[Any]) -> List[int]:
        """Batch evaluation: the identifier-space point of every key, in order.

        Convenience entry point for the bulk paths (collision estimation,
        benchmarks, batched network operations); each key goes through the
        same per-function memo as :meth:`__call__`.
        """
        call = self.__call__
        return [call(key) for key in keys]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(bits={self.bits})"


class HashFamily:
    """A sampler of pairwise-independent hash functions sharing one bit-width.

    The family is seeded so that a simulation run is fully reproducible: the
    same seed yields the same replication hash functions ``Hr`` and the same
    timestamping function ``h_ts``.

    Examples
    --------
    >>> family = HashFamily(bits=32, seed=7)
    >>> h1, h2 = family.sample("a"), family.sample("b")
    >>> h1("some-key") != h2("some-key")
    True
    """

    def __init__(self, bits: int = 64, seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        if not 1 <= bits <= 512:
            raise ValueError(f"bits must be in [1, 512], got {bits}")
        if rng is not None and seed is not None:
            raise ValueError("pass either 'seed' or 'rng', not both")
        self.bits = bits
        self._rng = rng if rng is not None else random.Random(seed)
        self._sampled: List[PairwiseIndependentHash] = []

    def sample(self, name: Optional[str] = None) -> PairwiseIndependentHash:
        """Draw a fresh hash function from the family.

        Parameters
        ----------
        name:
            Optional identifier; defaults to ``"h-<index>"``.
        """
        a = self._rng.randrange(1, _PRIME)
        b = self._rng.randrange(0, _PRIME)
        if name is None:
            name = f"h-{len(self._sampled)}"
        fn = PairwiseIndependentHash(name=name, a=a, b=b, bits=self.bits)
        self._sampled.append(fn)
        return fn

    def sample_many(self, count: int, prefix: str = "hr") -> List[PairwiseIndependentHash]:
        """Draw ``count`` hash functions named ``<prefix>-0 .. <prefix>-(count-1)``.

        This is the helper used to build the replication set ``Hr``.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return [self.sample(f"{prefix}-{index}") for index in range(count)]

    def __iter__(self) -> Iterator[PairwiseIndependentHash]:
        return iter(self._sampled)

    def __len__(self) -> int:
        return len(self._sampled)

