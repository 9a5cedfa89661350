"""Columnar Kademlia: packed member column and ``array('Q')`` k-bucket rows.

Two hot structures dominate the object overlay's footprint at scale:

* the sorted member list (boxed ints) that the trie-descent responsibility
  search bisects, and
* one ``List[int]`` row of boxed contacts *per populated bucket per node*,
  mutated on every observe/learn along every lookup path.

:class:`ColumnarKademliaOverlay` packs the member list into an ``array('Q')``
and :class:`ArrayRoutingTable` makes each bucket row a packed ``array('Q')``.
The least-recently-seen update rules, ``learn_many`` and the bucket-ordered
``closest`` are the base class's own code running over the packed rows, so
bucket contents — and therefore lookup paths, retry counts and learn
traffic — are bit-identical to the object representation, and nothing on
this path crosses into numpy.
"""

from __future__ import annotations

import random
from array import array
from typing import MutableSequence, Optional

from repro.dht.errors import InvalidConfigurationError
from repro.dht.kademlia import KademliaOverlay, KBucket, RoutingTable

__all__ = ["ArrayRoutingTable", "ColumnarKademliaOverlay"]


class ArrayRoutingTable(RoutingTable):
    """A :class:`RoutingTable` whose k-buckets are packed ``array('Q')`` rows.

    Row order encodes recency exactly like ``KBucket.contacts``: index 0 is
    the least-recently-seen contact, the tail the most-recently-seen one.
    """

    def _new_row(self) -> MutableSequence[int]:
        return array("Q")

    def bucket(self, index: int) -> KBucket:
        """A :class:`KBucket` *snapshot* of the packed row (diagnostics only).

        Mutating the returned bucket does not write back to the table; the
        update paths are :meth:`observe`/:meth:`learn`/:meth:`discard`.
        """
        row = self._rows.get(index)
        return KBucket(capacity=self.k,
                       contacts=list(row) if row is not None else [])


class ColumnarKademliaOverlay(KademliaOverlay):
    """A :class:`KademliaOverlay` with packed member and bucket storage.

    Limited to ``bits <= 64`` (the width of an ``array('Q')`` slot); the
    registry falls back to the object representation for wider identifier
    spaces.
    """

    representation = "columnar"

    def __init__(self, bits: int = 32, *, k: int = 16, alpha: int = 3,
                 rng: Optional[random.Random] = None) -> None:
        if bits > 64:
            raise InvalidConfigurationError(
                "the columnar Kademlia overlay packs identifiers into 64-bit "
                f"array slots and supports at most 64 bits, got {bits} "
                "(use the object representation for wider spaces)")
        super().__init__(bits=bits, k=k, alpha=alpha, rng=rng)
        # Same sorted-ascending invariant as the base class' list; the trie
        # descent bisects the packed column directly.
        self._members = array("Q")

    def _new_table(self, node_id: int) -> RoutingTable:
        return ArrayRoutingTable(node_id, self.bits, self.k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ColumnarKademliaOverlay(bits={self.bits}, k={self.k}, "
                f"nodes={len(self._members)})")
