"""Chord overlay (Stoica et al., SIGCOMM 2001), the DHT the paper implements on.

The ring assigns every identifier point ``x`` to its *successor*: the first
live node whose identifier is ``>= x`` (wrapping around the ring).  Routing is
the classic greedy finger-table walk: each node forwards a lookup to the
closest finger preceding the target, reaching the responsible node in
``O(log n)`` hops.

Churn realism
-------------
The paper's Figure 11 shows response time degrading with the failure rate
because failed peers leave stale routing state behind.  We reproduce the
mechanism: every node's finger table is a snapshot refreshed lazily every
``stabilization_interval`` simulated seconds.  Between refreshes a finger may
point at a departed node; when routing encounters one, the hop is retried
through the next live candidate.  A retry through a node that left *normally*
costs one extra message (the leaver handed off its pointers), while a retry
through a *failed* node additionally costs a timeout delay in the cost model.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, MutableSequence, Optional, Sequence, Set, Tuple

from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.model import DepartureReason, DHTProtocol, RouteResult

__all__ = ["ChordRing"]


@dataclass
class _FingerTable:
    """Snapshot of a node's fingers plus the time it was last refreshed.

    ``version`` is the membership version the entries were computed at: a
    refresh with an unchanged membership would recompute identical entries, so
    stabilisation only pays the O(bits·log n) finger scan when the ring
    actually changed since the snapshot.
    """

    entries: Sequence[int]
    #: ``(entry - node) mod 2^bits`` per entry, strictly ascending.
    offsets: Sequence[int]
    refreshed_at: float
    version: int = 0


class ChordRing(DHTProtocol):
    """An idealised-but-churn-aware Chord ring.

    Parameters
    ----------
    bits:
        Size of the identifier space (``2^bits`` points).  32 bits comfortably
        holds the paper's 10,000 peers with negligible collision probability.
    stabilization_interval:
        Simulated seconds between refreshes of a node's finger table.  ``0``
        models perfectly fresh routing state (no failure penalty).
    rng:
        Random source used only for tie-breaking utilities; routing itself is
        deterministic.
    """

    def __init__(self, bits: int = 32, *, stabilization_interval: float = 30.0,
                 rng: Optional[random.Random] = None) -> None:
        if not 3 <= bits <= 160:
            raise InvalidConfigurationError(
                f"chord identifier space must use between 3 and 160 bits, got {bits}")
        if stabilization_interval < 0:
            raise InvalidConfigurationError("stabilization_interval must be >= 0")
        self.bits = bits
        #: Number of identifier points on the ring.
        self.space_size = 1 << bits
        self.stabilization_interval = stabilization_interval
        self._rng = rng if rng is not None else random.Random(0)
        # Sorted node identifiers.  Declared as a mutable sequence so the
        # columnar subclass can swap in a packed array('Q') column.
        self._members: MutableSequence[int] = []
        self._member_set: Set[int] = set()
        self._departed: Dict[int, Tuple[str, float]] = {}
        self._fingers: Dict[int, _FingerTable] = {}
        self._init_version_caches()

    # ------------------------------------------------------------------ sizing
    def nodes(self) -> Sequence[int]:
        return self._cached_nodes(lambda: tuple(self._members))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._member_set

    def __len__(self) -> int:
        return len(self._members)

    # -------------------------------------------------------------- membership
    def add_node(self, node_id: int, *, now: float = 0.0) -> Set[int]:
        if not 0 <= node_id < self.space_size:
            raise InvalidConfigurationError(
                f"node id {node_id} outside identifier space [0, 2^{self.bits})")
        if node_id in self._member_set:
            raise NodeAlreadyPresentError(node_id)
        bisect.insort(self._members, node_id)
        self._member_set.add(node_id)
        self._departed.pop(node_id, None)
        self._membership_changed()
        # The only node that can lose responsibility to the newcomer is its
        # successor: keys in (predecessor(new), new] move from it to the new
        # node (Section 4.2.1, the Chord join argument).
        if len(self._members) == 1:
            return set()
        return {self.successor(self._next_point(node_id))}

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        index = bisect.bisect_left(self._members, node_id)
        self._members.pop(index)
        self._member_set.discard(node_id)
        self._fingers.pop(node_id, None)
        self._departed[node_id] = (reason, now)
        self._membership_changed()

    def departure_reason(self, node_id: int) -> Optional[str]:
        """How a departed node left (``"leave"``/``"fail"``), if known."""
        record = self._departed.get(node_id)
        return record[0] if record else None

    # ----------------------------------------------------------- responsibility
    def successor(self, point: int) -> int:
        """First live node whose identifier is ``>= point`` (wrapping)."""
        if not self._members:
            raise EmptyNetworkError("the Chord ring has no live nodes")
        point %= self.space_size
        index = bisect.bisect_left(self._members, point)
        if index == len(self._members):
            index = 0
        return self._members[index]

    def predecessor(self, node_id: int) -> int:
        """The live node immediately preceding ``node_id`` on the ring."""
        if not self._members:
            raise EmptyNetworkError("the Chord ring has no live nodes")
        index = bisect.bisect_left(self._members, node_id % self.space_size)
        return self._members[index - 1] if index > 0 else self._members[-1]

    def responsible_for(self, point: int) -> int:
        # Memoised per membership version (the successor of a point only
        # changes when the ring does).
        return self._memoised_responsible(point, self.successor)

    def claimed_span(self, node_id: int) -> Optional[Tuple[int, int]]:
        """The wrapping interval ``(predecessor, node_id]`` owned by ``node_id``.

        Chord responsibility is contiguous on the ring, which lets the network
        layer hand over data with a range scan of the store's point index
        instead of sweeping every entry.  Returns ``None`` when the node owns
        the whole ring (single member), meaning "no range filter applies".
        """
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        if len(self._members) < 2:
            return None
        return (self.predecessor(node_id), node_id)

    def next_responsible(self, point: int) -> Optional[int]:
        """``nrsp``: the node that takes over ``point`` if its responsible departs."""
        if len(self._members) < 2:
            return None
        current = self.successor(point)
        return self.successor(self._next_point(current))

    def neighbors(self, node_id: int) -> Set[int]:
        """Successor, predecessor and current finger targets of ``node_id``."""
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        if len(self._members) == 1:
            return set()
        neighbor_set = {self.successor(self._next_point(node_id)),
                        self.predecessor(node_id)}
        neighbor_set.update(self._compute_fingers(node_id)[0])
        neighbor_set.discard(node_id)
        return neighbor_set

    def successor_list(self, node_id: int, count: int = 4) -> List[int]:
        """The ``count`` nodes following ``node_id`` clockwise (fault tolerance)."""
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        successors: List[int] = []
        current = node_id
        for _ in range(min(count, max(0, len(self._members) - 1))):
            current = self.successor(self._next_point(current))
            successors.append(current)
        return successors

    # ------------------------------------------------------------------ fingers
    def finger_table(self, node_id: int, *, now: float = 0.0) -> List[int]:
        """The (possibly stale) finger entries of ``node_id`` at time ``now``."""
        return list(self._finger_snapshot(node_id, now).entries)

    def refresh_fingers(self, node_id: int, *, now: float = 0.0) -> None:
        """Force an immediate stabilisation of ``node_id``'s finger table."""
        self._fingers.pop(node_id, None)
        self._finger_snapshot(node_id, now)

    def _compute_fingers(self, node_id: int) -> Tuple[Sequence[int], Sequence[int]]:
        """The fingers of ``node_id`` over live members, and their offsets.

        Finger ``i`` is the successor of ``node_id + 2^i``, deduplicated and
        never ``node_id`` itself.  The targets climb clockwise from the node,
        so do their successors: the clockwise offsets ``(finger - node_id)
        mod 2^bits`` are strictly ascending, which is what lets
        :meth:`_next_hop` bisect them.
        """
        size = self.space_size
        entries: List[int] = []
        offsets: List[int] = []
        for exponent in range(self.bits):
            finger = self.successor((node_id + (1 << exponent)) % size)
            if finger != node_id and (not entries or finger != entries[-1]):
                entries.append(finger)
                offsets.append((finger - node_id) % size)
        return entries, offsets

    def _finger_snapshot(self, node_id: int, now: float) -> _FingerTable:
        table = self._fingers.get(node_id)
        if table is not None and now - table.refreshed_at < self.stabilization_interval:
            return table
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        if table is not None and table.version == self.version:
            # The membership is unchanged since the entries were computed: a
            # recompute would produce the same fingers, so only the refresh
            # clock moves.
            table.refreshed_at = now
        else:
            entries, offsets = self._compute_fingers(node_id)
            table = self._fingers[node_id] = _FingerTable(
                entries=entries, offsets=offsets, refreshed_at=now, version=self.version)
        return table

    # ------------------------------------------------------------------ routing
    def route(self, origin: int, point: int, *, now: float = 0.0) -> RouteResult:
        if origin not in self._member_set:
            raise NoSuchPeerError(origin)
        point %= self.space_size
        responsible = self.responsible_for(point)
        path: List[int] = [origin]
        retries = 0
        timeouts = 0
        current = origin
        max_hops = 4 * self.bits + len(self._members)
        while current != responsible and len(path) <= max_hops:
            next_hop, hop_retries, hop_timeouts = self._next_hop(current, point, now)
            retries += hop_retries
            timeouts += hop_timeouts
            if next_hop == current:
                break
            path.append(next_hop)
            current = next_hop
        if path[-1] != responsible:
            # Safety net: should not trigger, but guarantees a valid route even
            # if stale state confused the greedy walk.
            path.append(responsible)
        return RouteResult(path=tuple(path), responsible=responsible,
                           retries=retries, timeouts=timeouts)

    def _next_hop(self, current: int, point: int, now: float) -> Tuple[int, int, int]:
        """Choose the next hop from ``current`` towards ``point``.

        Returns ``(next_hop, retries, timeouts)`` where retries count fingers
        that turned out to be departed.

        The candidates are the fingers strictly inside the clockwise interval
        ``(current, point)`` — the whole ring but ``current`` when the two
        coincide.  Offsets ascend, so they are exactly the prefix below the
        target's own offset, and the closest preceding one is that prefix's
        last live entry.  A table computed at the ring's current membership
        version holds live members only: nothing to check there.
        """
        table = self._finger_snapshot(current, now)
        size = self.space_size
        inside = bisect.bisect_left(table.offsets, (point - current) % size or size)
        retries = timeouts = 0
        best: Optional[int] = None
        if table.version == self.version:
            if inside:
                best = table.entries[inside - 1]
        else:
            for finger in table.entries[:inside]:
                if finger in self._member_set:
                    best = finger
                else:
                    retries += 1
                    if self.departure_reason(finger) == DepartureReason.FAIL:
                        timeouts += 1
        if best is None:
            # No usable finger strictly before the target: the live successor
            # of current is the responsible (or at least strictly closer).
            best = self.successor(self._next_point(current))
        return best, retries, timeouts

    # ---------------------------------------------------------------- intervals
    def _next_point(self, node_id: int) -> int:
        return (node_id + 1) % self.space_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChordRing(bits={self.bits}, nodes={len(self._members)})"
