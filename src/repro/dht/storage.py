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
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

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
    """

    key: Any
    data: Any
    timestamp: Any = None
    version: Optional[int] = None
    hash_name: str = ""
    point: int = 0

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


_point = attrgetter("point")


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
    """Storage of one peer: one insertion-ordered dict ``(hash_name, key) -> entry``.

    A peer may hold several replicas of the same key when it happens to be
    responsible for the key under more than one replication hash function, so
    the hash function name is part of the index.  The dict's insertion order
    fixes the iteration order of :meth:`values`.  A store holds a few dozen
    entries at the simulated populations, so the span queries behind
    handover and delta sync scan every entry.  A point index over a slab of
    slots held about 130 B more per replica (tracemalloc, Python 3.11).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, Any], StoredValue] = {}

    # ------------------------------------------------------------------ write
    def put(self, value: StoredValue, *, reconcile: bool = True) -> bool:
        """Store ``value``; return ``True`` if the store was modified.

        With ``reconcile=True`` (the default, and the paper's behaviour) the
        incoming replica only replaces an existing one when
        :meth:`StoredValue.is_newer_than` says so.
        """
        index = (value.hash_name, value.key)
        if reconcile and not value.is_newer_than(self._entries.get(index)):
            return False
        self._entries[index] = value
        return True

    def delete(self, hash_name: str, key: Any) -> Optional[StoredValue]:
        """Remove and return the replica of ``key`` under ``hash_name``."""
        return self._entries.pop((hash_name, key), None)

    def clear(self) -> None:
        """Drop every replica (used when a peer's data is lost on failure)."""
        self._entries.clear()

    # ------------------------------------------------------------------- read
    def get(self, hash_name: str, key: Any) -> Optional[StoredValue]:
        """Return the replica of ``key`` placed by ``hash_name``, if any."""
        return self._entries.get((hash_name, key))

    def values(self) -> List[StoredValue]:
        """All replicas held by the peer, in first-insertion order."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def replicas_of(self, key: Any) -> List[StoredValue]:
        """All replicas of ``key`` held by this peer, across hash functions."""
        return [entry for (_, stored_key), entry in self._entries.items()
                if stored_key == key]

    def entries_in_span(self, lo: int, hi: int) -> List[StoredValue]:
        """Entries whose point lies in the wrapping interval ``(lo, hi]``.

        This is the scan behind join/leave handover on overlays with
        contiguous responsibility (Chord's ``claimed_span``) and behind delta
        sync.  Entries come in point order, walking up from ``lo`` (so a
        wrapping interval yields the part past ``lo`` first), and in
        insertion order within one point.  ``lo == hi`` denotes the whole
        space, in point order from 0.
        """
        if lo < hi:
            entries = [entry for entry in self._entries.values()
                       if lo < entry.point <= hi]
        elif lo > hi:  # interval wraps past the top of the identifier space
            entries = [entry for entry in self._entries.values()
                       if entry.point > lo or entry.point <= hi]
        else:
            entries = list(self._entries.values())
        entries.sort(key=_point)
        if lo > hi:
            split = bisect.bisect_right(entries, lo, key=_point)
            entries = entries[split:] + entries[:split]
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
        return f"LocalStore(entries={len(self._entries)})"
