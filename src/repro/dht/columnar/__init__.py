"""Columnar overlay representations: flat-array hot state behind the registry.

The object-graph overlays (:class:`~repro.dht.chord.ChordRing`,
:class:`~repro.dht.can.CanSpace`,
:class:`~repro.dht.kademlia.KademliaOverlay`) keep per-node routing state in
boxed-int lists and dict-of-object tables.  That is the simulator's scaling
ceiling: at 100k+ peers the interpreter spends its time and memory on object
headers, not on the paper's algorithms.  This sub-package provides drop-in
representations of the same three protocols whose *hot* state lives in flat
``array('Q')`` columns:

* :class:`~repro.dht.columnar.chord.ColumnarChordRing` — the sorted ring is
  one packed 64-bit array searched with ``bisect``; finger tables are
  version-snapshotted packed arrays instead of per-node list-of-int graphs.
* :class:`~repro.dht.columnar.kademlia.ColumnarKademliaOverlay` — the member
  list is a packed array and every k-bucket is a packed ``array('Q')`` row
  under the base class's own update rules and bucket-ordered ``closest``.
* :class:`~repro.dht.columnar.can.ColumnarCanSpace` — a struct-of-arrays zone
  table (packed-coordinate key -> slot -> owner column) answers point
  ownership by descending the canonical split tree in ``O(log n)`` instead of
  scanning every zone, which is what turns network construction from
  quadratic to ``O(n log n)``.

Behaviour is *bit-identical* to the object representation: same routes, same
affected sets, same RNG streams, same message accounting.  The columnar
classes subclass the object ones and override only storage-representation
hooks (``_new_table``, the CAN zone-table hooks, ``_compute_fingers``), so
the protocol logic itself is shared, and the conformance + fast-path parity
suites (``tests/dht``, ``tests/api``) pin the equivalence for every overlay.

Selection happens in :mod:`repro.dht.registry`: ``columnar`` is the default
representation; pass ``representation="object"`` (or set
``REPRO_OVERLAY_REPRESENTATION=object``) to build the object graphs instead.
Identifier spaces wider than 64 bits fall back to the object representation
because the packed columns hold 64-bit machine integers.
"""

from repro.dht.columnar.accel import HAVE_NUMPY
from repro.dht.columnar.can import ColumnarCanSpace
from repro.dht.columnar.chord import ColumnarChordRing
from repro.dht.columnar.kademlia import ArrayRoutingTable, ColumnarKademliaOverlay

#: Widest identifier space the packed ``array('Q')`` columns can hold.
MAX_COLUMNAR_BITS = 64

__all__ = [
    "ArrayRoutingTable",
    "ColumnarCanSpace",
    "ColumnarChordRing",
    "ColumnarKademliaOverlay",
    "HAVE_NUMPY",
    "MAX_COLUMNAR_BITS",
]
