"""Per-peer local storage of replicated pairs ``(k, {data, timestamp})``.

Each peer of the DHT stores, for every replication hash function ``h`` for
which it is ``rsp(k, h)``, the pair ``(k, newData)`` where ``newData`` bundles
the application data with either a KTS timestamp (UMS) or a version number
(the BRK baseline).  The store implements the peer-side reconciliation rule of
the paper's ``insert`` operation: an incoming replica only overwrites the local
one if it carries a strictly newer timestamp (respectively a newer version).
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.dht.model import slotted_init

__all__ = ["LocalStore", "StoredValue", "advanced_past", "reconciliation_token"]


@slotted_init
@dataclass(frozen=True, slots=True)
class StoredValue:
    """One replica stored at a peer.

    Attributes
    ----------
    key:
        The application-level key ``k``.
    data:
        The application data.
    timestamp:
        The KTS timestamp attached by UMS (``None`` for BRK replicas).
        Any totally-ordered value works; the services use
        :class:`repro.core.timestamps.Timestamp`.
    version:
        The BRICKS-style version number (``None`` for UMS replicas).
    hash_name:
        Name of the replication hash function under which the replica was
        placed (identifies *which* replica of ``k`` this is).
    point:
        The identifier-space point ``h(k)``; kept so churn-induced rebalancing
        does not need to re-hash keys.
    stored_at:
        Simulated time at which the replica was last written (0.0 when no
        clock is in use).
    """

    key: Any
    data: Any
    timestamp: Any = None
    version: Optional[int] = None
    hash_name: str = ""
    point: int = 0
    stored_at: float = 0.0

    def is_newer_than(self, other: Optional["StoredValue"]) -> bool:
        """Peer-side reconciliation rule (Section 3.2).

        Returns ``True`` when this replica should overwrite ``other``:

        * there is no existing replica, or
        * both carry timestamps and this timestamp is strictly greater, or
        * both carry versions and this version is greater or equal (BRICKS has
          no tie-break, so the last writer wins on equal versions — that
          ambiguity is exactly the baseline's documented weakness), or
        * the existing replica carries neither timestamp nor version.
        """
        if other is None:
            return True
        if self.timestamp is not None and other.timestamp is not None:
            return self.timestamp > other.timestamp
        if self.version is not None and other.version is not None:
            return self.version >= other.version
        if other.timestamp is None and other.version is None:
            return True
        # Mixing stamped and un-stamped replicas for the same key: keep the
        # stamped one.
        return self.timestamp is not None or self.version is not None


def reconciliation_token(entry: StoredValue) -> Tuple[str, Any]:
    """The compact comparison token a summary carries for ``entry``.

    ``("ts", counter)`` for timestamped replicas (the counter of
    :class:`repro.core.timestamps.Timestamp`, or the raw value for plain
    ordered timestamps), ``("version", n)`` for versioned ones and
    ``("none", 0)`` for bare entries.  Tokens are orders of magnitude smaller
    than the data they stand for, which is what makes a summary exchange
    cheaper than a full-state transfer.
    """
    if entry.timestamp is not None:
        return ("ts", getattr(entry.timestamp, "value", entry.timestamp))
    if entry.version is not None:
        return ("version", entry.version)
    return ("none", 0)


def advanced_past(entry: StoredValue, token: Tuple[str, Any]) -> bool:
    """Whether ``entry`` must be shipped given the destination's ``token``.

    Only a provable non-advance is skipped; any mismatch of kinds ships the
    entry and lets the destination's reconciliation decide.
    """
    kind, value = token[0], token[1]
    if kind == "ts" and entry.timestamp is not None:
        return getattr(entry.timestamp, "value", entry.timestamp) > value
    if kind == "version" and entry.version is not None:
        return entry.version > value
    if kind == "none":
        return entry.timestamp is not None or entry.version is not None
    return True


class LocalStore:
    """Storage of one peer, indexed by ``(hash_name, key)``.

    A peer may hold several replicas of the same key when it happens to be
    responsible for the key under more than one replication hash function, so
    the hash function name is part of the index.

    Entries live in a *slab*: a flat list of :class:`StoredValue` slots with a
    free list, so deletes and overwrites recycle slots instead of churning
    dictionary-of-dictionary buckets.  Two indexes point into the slab:

    * ``(hash_name, key) -> slot`` for point reads (insertion-ordered, which
      fixes the iteration order of :meth:`values`/:meth:`keys`);
    * ``point -> array('I', slots)`` so churn-induced rebalancing can locate
      the entries of a moving identifier interval with a range scan
      (:meth:`entries_in_span`) instead of sweeping the whole store.  The
      per-point slot arrays are packed machine integers, not objects, keeping
      the index a few bytes per entry at 100k+-peer populations.
    """

    def __init__(self) -> None:
        self._slab: List[Optional[StoredValue]] = []
        self._free: List[int] = []
        self._index: Dict[Tuple[str, Any], int] = {}
        self._point_slots: Dict[int, "array[int]"] = {}
        self._sorted_points: Optional[List[int]] = None  # rebuilt lazily

    def _allocate(self, value: StoredValue) -> int:
        """Place ``value`` in a free slab slot (extending the slab if full)."""
        if self._free:
            slot = self._free.pop()
            self._slab[slot] = value
            return slot
        self._slab.append(value)
        return len(self._slab) - 1

    # ------------------------------------------------------------------ write
    def put(self, value: StoredValue, *, reconcile: bool = True) -> bool:
        """Store ``value``; return ``True`` if the store was modified.

        With ``reconcile=True`` (the default, and the paper's behaviour) the
        incoming replica only replaces an existing one when
        :meth:`StoredValue.is_newer_than` says so.
        """
        index = (value.hash_name, value.key)
        slot = self._index.get(index)
        existing = self._slab[slot] if slot is not None else None
        if reconcile and not value.is_newer_than(existing):
            return False
        if slot is None:
            self._index[index] = self._allocate(value)
            self._index_point(value.point, self._index[index])
            return True
        self._slab[slot] = value
        if existing is not None and existing.point != value.point:
            self._unindex_point(existing.point, slot)
            self._index_point(value.point, slot)
        return True

    def delete(self, hash_name: str, key: Any) -> Optional[StoredValue]:
        """Remove and return the replica of ``key`` under ``hash_name``."""
        slot = self._index.pop((hash_name, key), None)
        if slot is None:
            return None
        entry = self._slab[slot]
        self._slab[slot] = None
        self._free.append(slot)
        assert entry is not None
        self._unindex_point(entry.point, slot)
        return entry

    def _index_point(self, point: int, slot: int) -> None:
        slots = self._point_slots.get(point)
        if slots is None:
            self._point_slots[point] = array("I", (slot,))
            self._sorted_points = None
        else:
            slots.append(slot)

    def _unindex_point(self, point: int, slot: int) -> None:
        slots = self._point_slots.get(point)
        if slots is None:
            return
        try:
            slots.remove(slot)
        except ValueError:
            return
        if not slots:
            del self._point_slots[point]
            self._sorted_points = None

    def clear(self) -> None:
        """Drop every replica (used when a peer's data is lost on failure)."""
        self._slab.clear()
        self._free.clear()
        self._index.clear()
        self._point_slots.clear()
        self._sorted_points = None

    # ------------------------------------------------------------------- read
    def get(self, hash_name: str, key: Any) -> Optional[StoredValue]:
        """Return the replica of ``key`` placed by ``hash_name``, if any."""
        slot = self._index.get((hash_name, key))
        return self._slab[slot] if slot is not None else None

    def contains(self, hash_name: str, key: Any) -> bool:
        """Whether a replica of ``key`` under ``hash_name`` is present."""
        return (hash_name, key) in self._index

    def values(self) -> List[StoredValue]:
        """All replicas held by the peer, in first-insertion order."""
        slab = self._slab
        return [slab[slot] for slot in self._index.values()]  # type: ignore[misc]

    def keys(self) -> List[Tuple[str, Any]]:
        """All ``(hash_name, key)`` indexes currently stored."""
        return list(self._index.keys())

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[StoredValue]:
        return iter(self.values())

    def __contains__(self, index: Tuple[str, Any]) -> bool:
        return index in self._index

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def replicas_of(self, key: Any) -> List[StoredValue]:
        """All replicas of ``key`` held by this peer, across hash functions."""
        slab = self._slab
        return [slab[slot] for (_, stored_key), slot in self._index.items()  # type: ignore[misc]
                if stored_key == key]

    # ------------------------------------------------------------- point index
    def _points_sorted(self) -> List[int]:
        """The lazily-maintained sorted point list (internal: do not mutate)."""
        if self._sorted_points is None:
            self._sorted_points = sorted(self._point_slots)
        return self._sorted_points

    def points(self) -> List[int]:
        """The distinct identifier points present in the store, sorted."""
        return list(self._points_sorted())

    def entries_at(self, point: int) -> List[StoredValue]:
        """All entries whose identifier point equals ``point``."""
        slots = self._point_slots.get(point)
        if slots is None:
            return []
        slab = self._slab
        return [slab[slot] for slot in slots]  # type: ignore[misc]

    def entries_in_span(self, lo: int, hi: int) -> List[StoredValue]:
        """Entries whose point lies in the wrapping interval ``(lo, hi]``.

        This is the range scan behind join/leave handover on overlays with
        contiguous responsibility (Chord's ``claimed_span``): only the entries
        of the moving interval are visited, in point order.  ``lo == hi``
        denotes the whole space.
        """
        points = self._points_sorted()
        selected: List[int]
        if lo == hi:
            selected = points
        elif lo < hi:
            selected = points[bisect.bisect_right(points, lo):
                              bisect.bisect_right(points, hi)]
        else:  # interval wraps past the top of the identifier space
            selected = (points[bisect.bisect_right(points, lo):]
                        + points[:bisect.bisect_right(points, hi)])
        slab = self._slab
        entries: List[StoredValue] = []
        for point in selected:
            entries.extend(slab[slot] for slot in self._point_slots[point])  # type: ignore[misc]
        return entries

    # ------------------------------------------------------------- delta sync
    def timestamp_summary(self, lo: int, hi: int) -> Dict[Tuple[str, Any], Tuple[str, Any]]:
        """Reconciliation tokens of every entry in the span ``(lo, hi]``.

        The summary maps ``(hash_name, key)`` to a compact token — the KTS
        timestamp counter for stamped replicas, the version number for BRK
        replicas — and is what a peer ships *instead of* its data during a
        delta sync: the other side compares tokens and sends back only the
        entries that advanced (:meth:`entries_newer_than`).  ``lo == hi``
        summarises the whole store, mirroring :meth:`entries_in_span`.
        """
        return {(entry.hash_name, entry.key): reconciliation_token(entry)
                for entry in self.entries_in_span(lo, hi)}

    def entries_newer_than(self, lo: int, hi: int,
                           summary: Dict[Tuple[str, Any], Tuple[str, Any]]
                           ) -> List[StoredValue]:
        """Entries in ``(lo, hi]`` that advanced past ``summary``'s tokens.

        This is the sender side of delta replication: given the destination's
        :meth:`timestamp_summary`, return only the entries the destination is
        missing or holds an older copy of.  The filter is conservative — an
        entry is skipped only when its token *provably* has not advanced
        (same kind, not strictly greater) — so the destination's
        ``put(reconcile=True)`` remains the final authority and no advanced
        entry is ever withheld.
        """
        selected: List[StoredValue] = []
        for entry in self.entries_in_span(lo, hi):
            token = summary.get((entry.hash_name, entry.key))
            if token is None or advanced_past(entry, token):
                selected.append(entry)
        return selected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalStore(entries={len(self._index)})"
