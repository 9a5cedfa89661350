"""Chord overlay (Stoica et al., SIGCOMM 2001), the DHT the paper implements on.

The ring assigns every identifier point ``x`` to its *successor*: the first
live node whose identifier is ``>= x`` (wrapping around the ring).  Routing is
the classic greedy finger-table walk: each node forwards a lookup to the
closest finger preceding the target, reaching the responsible node in
``O(log n)`` hops.

A node's fingers are one list, ``jumps[e] = successor(node + 2^e)`` (Stoica et
al.'s finger ``e``, not deduplicated).  Through a fresh table the closest
preceding finger is the jump at the top bit of the clockwise distance from
the current node to the responsible's predecessor: no search.

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
from typing import Dict, List, Optional, Set, Tuple

from repro.dht.errors import EmptyNetworkError, InvalidConfigurationError, NoSuchPeerError
from repro.dht.model import DepartureReason, DHTProtocol, Walk

__all__ = ["ChordRing"]


class _FingerTable:
    """Snapshot of a node's fingers plus the time it was last refreshed.

    ``jumps[e]`` is the successor of ``node + 2^e`` for every exponent below
    ``bits`` (the node itself past its last finger).  ``version`` is the
    membership version the jumps were computed at: a refresh with an
    unchanged membership would recompute identical jumps, so stabilisation
    only pays the finger scan (one successor search per distinct finger)
    when the ring actually changed since the snapshot.
    """

    __slots__ = ("jumps", "refreshed_at", "version")

    def __init__(self, jumps: List[int], refreshed_at: float, version: int) -> None:
        self.jumps, self.refreshed_at, self.version = jumps, refreshed_at, version


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
        Accepted for the overlay factory contract and unused: joins, routing
        and responsibility on the ring are deterministic.
    """

    def __init__(self, bits: int = 32, *, stabilization_interval: float = 30.0,
                 rng: Optional[random.Random] = None) -> None:
        if not 3 <= bits <= 160:
            raise InvalidConfigurationError(
                f"chord identifier space must use between 3 and 160 bits, got {bits}")
        if stabilization_interval < 0:
            raise InvalidConfigurationError("stabilization_interval must be >= 0")
        super().__init__(bits)
        self.stabilization_interval = stabilization_interval
        self._fingers: Dict[int, _FingerTable] = {}

    # -------------------------------------------------------------- membership
    def add_node(self, node_id: int, *, now: float = 0.0) -> Set[int]:
        self._check_join(node_id)
        self._enter(node_id)
        # The only node that can lose responsibility to the newcomer is its
        # successor: keys in (predecessor(new), new] move from it to the new
        # node (Section 4.2.1, the Chord join argument).
        affected: Set[int] = ({self.successor(self._next_point(node_id))}
                              if len(self._members) > 1 else set())
        self._membership_changed(affected)
        return affected

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        self._exit(node_id, reason, now)
        self._fingers.pop(node_id, None)

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
        # Memoised (the successor of a point only changes when a join or a
        # departure lands next to it, which evicts it).
        return self._memoised_responsible(point, self.successor)

    def claimed_span(self, node_id: int) -> Optional[Tuple[int, int]]:
        """The wrapping interval ``(predecessor, node_id]`` owned by ``node_id``.

        Chord responsibility is contiguous on the ring, which lets the network
        layer hand over the entries of this interval instead of asking the
        responsibility memo about every entry.  Returns ``None`` when the node owns
        the whole ring (single member), meaning "no range filter applies".
        """
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        if len(self._members) < 2:
            return None
        return (self.predecessor(node_id), node_id)

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
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
        neighbor_set.update(self._compute_jumps(node_id))
        neighbor_set.discard(node_id)
        return neighbor_set

    # ------------------------------------------------------------------ fingers
    # reprolint: allow[REP008] reason=read view: tests/dht/test_chord_next_hop_oracle.py reads finger state through it
    def finger_table(self, node_id: int, *, now: float = 0.0) -> List[int]:
        """The (possibly stale) distinct fingers of ``node_id`` at time ``now``."""
        jumps = dict.fromkeys(self._finger_snapshot(node_id, now).jumps)
        return [finger for finger in jumps if finger != node_id]

    def _compute_jumps(self, node_id: int) -> List[int]:
        """``[successor(node_id + 2^e) for e in range(bits)]`` over live members.

        The targets climb clockwise from the node, and so do their
        successors.  A finger at offset ``o = (finger - node_id) mod 2^bits``
        is also the successor of every target up to ``o``, so the scan fills
        the exponents up to ``o.bit_length()`` with it and jumps there; once a
        target's successor is the node itself, so is every later one's.
        """
        size, bits = self.space_size, self.bits
        jumps = [node_id] * bits
        exponent = 0
        while exponent < bits:
            finger = self.successor((node_id + (1 << exponent)) % size)
            if finger == node_id:
                break
            reach = ((finger - node_id) % size).bit_length()
            jumps[exponent:reach] = [finger] * (reach - exponent)
            exponent = reach
        return jumps

    def _finger_snapshot(self, node_id: int, now: float) -> _FingerTable:
        table = self._fingers.get(node_id)
        if table is not None and now - table.refreshed_at < self.stabilization_interval:
            return table
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        if table is not None and table.version == self.version:
            # The membership is unchanged since the jumps were computed: a
            # recompute would produce the same fingers, so only the refresh
            # clock moves.
            table.refreshed_at = now
        else:
            table = self._fingers[node_id] = _FingerTable(
                self._compute_jumps(node_id), now, self.version)
        return table

    # ------------------------------------------------------------------ routing
    def walk(self, origin: int, point: int, now: float) -> Walk:
        if origin not in self._member_set:
            raise NoSuchPeerError(origin)
        size = self.space_size
        point %= size
        responsible = self.responsible_for(point)
        path: List[int] = [origin]
        # The nodes strictly between a hop and the point are those up to the
        # responsible's predecessor, so the closest preceding finger is the
        # jump at the top bit of the distance to it (jumps[0] from it).
        last = self.predecessor(responsible)
        retries = timeouts = 0
        current = origin
        max_hops = 4 * self.bits + len(self._members)
        fingers, version, interval = self._fingers, self.version, self.stabilization_interval
        while current != responsible and len(path) <= max_hops:
            # A table at the current version and inside its refresh window is
            # read inline: _next_hop would neither refresh nor retry there.
            # Any other table goes through _next_hop and its bookkeeping.
            table = fingers.get(current)
            if (table is not None and table.version == version
                    and now - table.refreshed_at < interval):
                next_hop = table.jumps[((last - current) % size or 1).bit_length() - 1]
            else:
                next_hop, hop_retries, hop_timeouts = self._next_hop(current, point, now)
                retries += hop_retries
                timeouts += hop_timeouts
            if next_hop == current:
                break
            path.append(next_hop)
            current = next_hop
        if current != responsible:
            # Safety net: should not trigger, but guarantees a valid route even
            # if stale state confused the greedy walk.
            path.append(responsible)
        return path, responsible, retries, timeouts

    def _next_hop(self, current: int, point: int, now: float) -> Tuple[int, int, int]:
        """Choose the next hop from ``current`` towards ``point``.

        Returns ``(next_hop, retries, timeouts)`` where retries count fingers
        that turned out to be departed.  The candidates are the distinct
        fingers strictly inside the clockwise interval ``(current, point)`` —
        the whole ring but ``current`` when the two coincide.  Jump offsets
        never descend, so they are the distinct jumps below the target's own
        offset, and the closest preceding one is the last live one.
        """
        table = self._finger_snapshot(current, now)
        size = self.space_size
        target = (point - current) % size or size
        members = self._member_set
        retries = timeouts = 0
        best: Optional[int] = None
        for finger in dict.fromkeys(table.jumps):
            if finger == current or (finger - current) % size >= target:
                break
            if finger in members:
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
