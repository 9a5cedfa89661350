"""Columnar Chord: packed 64-bit ring and finger tables.

The object :class:`~repro.dht.chord.ChordRing` keeps the sorted ring as a
``List[int]`` (one boxed ``int`` object per member) and every finger table as
another list of boxed ints.  At 100k peers that is hundreds of thousands of
28-byte integer objects plus list-of-pointer overhead, and every successor
bisect chases pointers.  This subclass stores both as ``array('Q')`` columns:
8 bytes per member, contiguous, still binary-searchable with :mod:`bisect`
(and with ``numpy.searchsorted`` through :mod:`repro.dht.columnar.accel`
when the ``repro[fast]`` extra is installed).

All protocol logic — successor rule, stabilisation staleness, greedy finger
routing, RNG usage — is inherited unchanged, so routes, traces and random
streams are bit-identical to the object representation (pinned by the
conformance and parity suites).
"""

from __future__ import annotations

import random
from array import array
from typing import Optional, Sequence, Tuple

from repro.dht.chord import ChordRing
from repro.dht.columnar import accel
from repro.dht.errors import InvalidConfigurationError

__all__ = ["ColumnarChordRing"]


class ColumnarChordRing(ChordRing):
    """A :class:`ChordRing` whose ring and fingers live in packed arrays.

    Limited to ``bits <= 64`` (the width of an ``array('Q')`` slot); the
    registry falls back to the object representation for wider identifier
    spaces.
    """

    representation = "columnar"

    def __init__(self, bits: int = 32, *, stabilization_interval: float = 30.0,
                 rng: Optional[random.Random] = None) -> None:
        if bits > 64:
            raise InvalidConfigurationError(
                "the columnar Chord ring packs identifiers into 64-bit array "
                f"slots and supports at most 64 bits, got {bits} "
                "(use the object representation for wider spaces)")
        super().__init__(bits=bits, stabilization_interval=stabilization_interval,
                         rng=rng)
        # Same sorted-ascending invariant as the base class' list; bisect and
        # insort operate on the packed column directly.
        self._members = array("Q")

    def _compute_fingers(self, node_id: int) -> Tuple[Sequence[int], Sequence[int]]:
        """The fingers of ``node_id`` and their clockwise offsets, packed.

        Identical entries in identical order to the base implementation
        (successor-per-exponent, deduplicated, self excluded) — only the
        containers change, and all ``bits`` successor searches are answered in
        one batched pass over the member column.
        """
        members = self._members
        size = self.space_size
        targets = [(node_id + (1 << exponent)) % size
                   for exponent in range(self.bits)]
        entries = array("Q")
        offsets = array("Q")
        for position in accel.successor_positions(members, targets):
            finger = members[position]
            if finger != node_id and (not entries or finger != entries[-1]):
                entries.append(finger)
                offsets.append((finger - node_id) % size)
        return entries, offsets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarChordRing(bits={self.bits}, nodes={len(self._members)})"
