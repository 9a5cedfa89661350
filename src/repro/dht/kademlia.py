"""Kademlia overlay (Maymounkov & Mazières, IPTPS 2002).

Kademlia organises peers by the *XOR metric*: the distance between two
identifiers is their bitwise exclusive-or interpreted as an integer.  The
metric is symmetric, satisfies the triangle inequality and is *unidirectional*
— for any point there is exactly one node at a given distance — so the peer
responsible for a key is simply the live node whose identifier is XOR-closest
to ``h(k)``.

The paper's UMS/KTS design (Section 2) is deliberately DHT-agnostic: it only
needs the lookup service, ``put_h``/``get_h`` and responsibility-change
notifications.  This module provides the third overlay (after Chord and CAN)
implementing :class:`repro.dht.model.DHTProtocol`, which lets the services and
the simulation harness run over Kademlia unchanged and stress-tests the
paper's claim that timestamp correctness survives dynamic membership
regardless of the routing substrate.

Routing state and churn realism
-------------------------------
Every node keeps a routing table of *k-buckets*: bucket ``i`` holds up to
``k`` contacts whose XOR distance to the node has its top bit at position
``i`` (i.e. contacts sharing exactly ``bits - 1 - i`` leading prefix bits).
Buckets are maintained with Kademlia's least-recently-seen eviction policy:
contacts are kept in least-recently-seen order, a contact that communicates
moves to the tail, and when a full bucket sees a new contact the
least-recently-seen entry is pinged — if it is still alive the newcomer is
dropped (long-lived contacts are the most reliable ones), otherwise it is
evicted and the newcomer appended.

Lookups are *iterative*: the origin repeatedly queries the closest contact it
knows of, each queried node answers with the ``k`` closest contacts from its
own buckets, and the search stops when no contact closer than the best node
already queried remains.  Tables are only updated through this traffic (there
is no global stabilisation), so after churn they may still hold departed
contacts; querying one costs a retry message — plus a timeout when the
contact *failed* rather than left — exactly the staleness mechanism behind
the paper's Figure 11.

Responsibility handover
-----------------------
On a join the set of nodes that can lose part of the identifier space to the
newcomer ``u`` is exactly the set of live nodes with the *longest* common
prefix with ``u`` (the occupants of the bucket that ``u`` splits): viewing
the membership as a binary trie, every point that ``u`` steals used to fall
through ``u``'s attach point into that sibling subtree.  ``add_node`` returns
this set, which makes the overlay Responsibility Loss Aware (Section 4.3) —
the network layer re-examines only those nodes' stores, and KTS transfers
only those nodes' displaced counters.
"""

from __future__ import annotations

import bisect
import random
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.messages import TraceSummary
from repro.dht.model import DepartureReason, DHTProtocol, RouteResult

__all__ = ["KademliaOverlay", "RoutingTable"]


class RoutingTable:
    """The k-buckets of one node, indexed by XOR-distance magnitude.

    Bucket ``i`` holds contacts at distance ``[2^i, 2^(i+1))`` from the owner,
    i.e. contacts whose common prefix with the owner is ``bits - 1 - i`` bits.
    Each bucket is one bare list in least-recently-seen order (``row[0]`` the
    least, ``row[-1]`` the most recently seen contact), updated in place by
    :meth:`observe`/:meth:`learn`/:meth:`discard`.  Rows are created lazily,
    never deleted, and most of the ``bits`` buckets stay empty.
    """

    def __init__(self, owner: int, bits: int, k: int) -> None:
        self.owner = owner
        self.bits = bits
        self.k = k
        self._rows: Dict[int, List[int]] = {}
        # The keys of ``_rows`` in ascending order, kept as rows are created.
        self._indices: List[int] = []

    def _row(self, index: int) -> List[int]:
        row = self._rows.get(index)
        if row is None:
            row = self._rows[index] = []
            bisect.insort(self._indices, index)
        return row

    # reprolint: allow[REP008] reason=read view: tests/dht/test_kademlia.py reads one bucket through it
    def bucket(self, index: int) -> List[int]:
        """A copy of the bucket at ``index``, least recently seen first.

        Mutating the returned list does not write back to the table; the
        update paths are :meth:`observe`/:meth:`learn`/:meth:`discard`.
        """
        return list(self._rows.get(index, ()))

    def observe(self, contact: int, is_alive: Callable[[int], bool]) -> bool:
        """Record direct communication with ``contact`` (Kademlia's update rule).

        A known contact moves to the most-recently-seen end.  A new contact is
        appended while there is room; when the bucket is full the
        least-recently-seen entry is pinged: if it answers it moves to the
        tail and the newcomer is dropped (old contacts are the most likely to
        stay online), otherwise it is evicted and the newcomer appended.
        Returns ``True`` when ``contact`` is in the bucket afterwards.
        """
        if contact == self.owner:
            return False
        row = self._row((self.owner ^ contact).bit_length() - 1)
        if contact in row:
            row.remove(contact)
            row.append(contact)
            return True
        if len(row) < self.k:
            row.append(contact)
            return True
        answered = is_alive(row[0])
        least_recently_seen = row.pop(0)
        row.append(least_recently_seen if answered else contact)
        return not answered

    # reprolint: allow[REP008] reason=the one-contact rule learn_many applies; the bucket-rule oracle in tests/dht/test_kademlia_lookup_oracle.py drives it
    def learn(self, contact: int) -> bool:
        """Record a contact learned second-hand (from a lookup reply).

        Passively learned contacts never displace existing entries and do not
        refresh recency; they are only appended when there is room.  Returns
        ``True`` when ``contact`` is in the bucket afterwards.
        """
        if contact == self.owner:
            return False
        row = self._row((self.owner ^ contact).bit_length() - 1)
        if contact in row:
            return True
        if len(row) >= self.k:
            return False
        row.append(contact)
        return True

    def learn_many(self, contacts: Iterable[int], skip: Container[int]) -> None:
        """Learn one lookup reply: :meth:`learn` each contact, in reply order.

        The owner and the contacts in ``skip`` (those the running lookup found
        dead) are passed over.  Order matters — two contacts of one bucket
        compete for its last free slot — and a full bucket cannot change, so
        its length is tested before the membership scan.
        """
        owner, k, rows = self.owner, self.k, self._rows
        for contact in contacts:
            if contact != owner and contact not in skip:
                index = (owner ^ contact).bit_length() - 1
                row = rows.get(index) or self._row(index)
                if len(row) < k and contact not in row:
                    row.append(contact)

    def discard(self, contact: int) -> None:
        """Drop ``contact`` from its bucket, if present."""
        # The owner itself maps to index -1, which no row ever has.
        row = self._rows.get((self.owner ^ contact).bit_length() - 1)
        if row is not None and contact in row:
            row.remove(contact)

    def contacts(self) -> List[int]:
        """Every contact currently held, over all buckets."""
        rows = self._rows
        entries: List[int] = []
        for index in self._indices:
            entries += rows[index]
        return entries

    def nearer_than_owner(self, point: int) -> List[int]:
        """Every contact XOR-nearer to ``point`` than the owner, in bucket order.

        By the bucket order of :meth:`closest` these are exactly the contacts
        of the buckets at the set bits of ``owner ^ point``.
        """
        rows, delta = self._rows, self.owner ^ point
        entries: List[int] = []
        for index in self._indices:
            if delta >> index & 1:
                entries += rows[index]
        return entries

    def closest(self, point: int, count: int) -> List[int]:
        """The ``count`` known contacts closest (XOR) to ``point``, nearest first.

        The buckets are read in XOR order and never the whole table: with
        ``d = owner ^ point``, a contact of bucket ``i`` lies at distance
        ``d`` with bit ``i`` flipped and the lower bits free.  Where bit ``i``
        of ``d`` is set the flip clears it, so bucket ``i`` is nearer than
        every lower bucket; elsewhere the flip sets it, so bucket ``i`` is
        farther than every lower one.  Hence: set bits from the top down, then
        the other buckets from the bottom up, stopping at ``count``.  Every
        contact of a bucket read earlier is nearer than every contact of one
        read later, so one sort of the rows read (fewer than ``count + k``
        contacts) orders them.
        """
        rows, indices, delta = self._rows, self._indices, self.owner ^ point
        found: List[int] = []
        for index in reversed(indices):
            if delta >> index & 1:
                found += rows[index]
                if len(found) >= count:
                    break
        else:
            for index in indices:
                if not delta >> index & 1:
                    found += rows[index]
                    if len(found) >= count:
                        break
        found.sort(key=point.__xor__)
        return found[:count]

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        populated = sum(1 for row in self._rows.values() if len(row))
        return (f"{type(self).__name__}(owner={self.owner}, contacts={len(self)}, "
                f"buckets={populated})")


class KademliaOverlay(DHTProtocol):
    """A Kademlia overlay over the integer identifier space ``[0, 2^bits)``.

    Parameters
    ----------
    bits:
        Size of the identifier space; the same 32-bit default as the other
        overlays so one hash family drives all of them.
    k:
        Bucket capacity (the system-wide replication/bucket parameter of the
        Kademlia paper; 20 there, a smaller default here to match the
        simulated population sizes).
    rng:
        Random source used for bootstrap-contact selection on joins.
    """

    def __init__(self, bits: int = 32, *, k: int = 16,
                 rng: Optional[random.Random] = None) -> None:
        if not 3 <= bits <= 160:
            raise InvalidConfigurationError(
                f"kademlia identifier space must use between 3 and 160 bits, got {bits}")
        if k < 1:
            raise InvalidConfigurationError("bucket capacity k must be >= 1")
        self.bits = bits
        #: Number of points in the identifier space.
        self.space_size = 1 << bits
        self.k = k
        self._rng = rng if rng is not None else random.Random(0)
        # Sorted live node identifiers.
        self._members: List[int] = []
        self._member_set: Set[int] = set()
        self._departed: Dict[int, Tuple[str, float]] = {}
        self._tables: Dict[int, RoutingTable] = {}
        # Routing *tables* mutate continuously with lookup traffic, but XOR
        # responsibility depends only on the live membership, so the
        # point -> closest-member memo changes only with it.
        self._init_version_caches()

    # ------------------------------------------------------------------ sizing
    def nodes(self) -> Sequence[int]:
        if self._nodes_cache is None:
            self._nodes_cache = tuple(self._members)
        return self._nodes_cache

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
        affected = self._deepest_bucket_members(node_id)
        index = bisect.bisect_left(self._members, node_id)
        self._members.insert(index, node_id)
        self._member_set.add(node_id)
        self._departed.pop(node_id, None)
        self._reassign_memo(node_id, affected)
        self._membership_changed(())
        table = self._tables[node_id] = RoutingTable(node_id, self.bits, self.k)
        if affected:
            # Join protocol: seed the table with a bootstrap contact (a
            # uniformly random member other than the newcomer), then look up
            # the own identifier to populate the buckets near it.
            draw = self._rng.randrange(len(self._members) - 1)
            bootstrap = self._members[draw if draw < index else draw + 1]
            table.observe(bootstrap, self._member_set.__contains__)
            self._iterative_lookup(node_id, node_id, self_distance=None)
            # The newcomer and the nodes it displaces exchange the handover
            # traffic, so they learn about each other directly.
            for previous_owner in affected:
                self._observe(node_id, previous_owner)
                self._observe(previous_owner, node_id)
        return affected

    def _deepest_bucket_members(self, node_id: int) -> Set[int]:
        """The live nodes sharing the longest common prefix with ``node_id``.

        Viewing the membership as a binary trie, these are the occupants of
        the sibling subtree at ``node_id``'s attach point — exactly the nodes
        a join can steal identifier points from (see the module docstring).
        Found by descending the sorted member list as a trie: follow
        ``node_id``'s bits while members still share the prefix; the interval
        reached when no member shares the next bit is the deepest bucket.
        """
        if not self._members:
            return set()
        members = self._members
        lo, hi, prefix = 0, len(members), 0
        for bit in range(self.bits - 1, -1, -1):
            mid_value = prefix | (1 << bit)
            split = bisect.bisect_left(members, mid_value, lo, hi)
            if node_id & (1 << bit):
                if split == hi:
                    break  # nobody shares the next bit: [lo, hi) is the bucket
                lo, prefix = split, mid_value
            else:
                if split == lo:
                    break
                hi = split
        return set(members[lo:hi])

    def _reassign_memo(self, node_id: int, affected: Set[int]) -> None:
        """Move the memoised points that the newcomer ``node_id`` now owns.

        Only the ``affected`` nodes lose points to a join, and a point of
        ``displaced`` moves exactly when it is XOR-nearer to the newcomer, so
        one comparison per memoised point keeps the whole memo exact.
        """
        cache, index = self._rsp_cache, self._rsp_points
        stolen: List[int] = []
        for displaced in affected:
            points = index.get(displaced)
            if not points:
                continue
            kept: List[int] = []
            for point in points:
                if point ^ node_id < point ^ displaced:
                    stolen.append(point)
                    cache[point] = node_id
                else:
                    kept.append(point)
            index[displaced] = kept
        if stolen:
            index[node_id] = stolen

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        index = bisect.bisect_left(self._members, node_id)
        self._members.pop(index)
        self._member_set.discard(node_id)
        self._tables.pop(node_id, None)
        self._departed[node_id] = (reason, now)
        self._membership_changed((node_id,))
        # Other nodes keep the departed contact in their buckets until a
        # lookup runs into it (stale-state realism; there is no oracle purge).

    # ----------------------------------------------------------- responsibility
    def _descend(self, point: int, lo: int, hi: int
                 ) -> Tuple[int, Optional[Tuple[int, int]]]:
        """Trie-descend the sorted member slice ``[lo, hi)`` towards ``point``.

        The members sharing any given prefix form a contiguous slice, so the
        binary trie over the membership can be walked with two bisects per
        bit, narrowing to the half matching ``point``'s next bit (falling
        back to the other half when it is empty) — ``O(bits · log n)``
        instead of a linear scan.

        Returns ``(index, sibling)``: the index of the XOR-closest member and
        the deepest non-empty sibling slice passed on the way down (or
        ``None`` when the slice was a single member).  The runner-up in XOR
        distance always lives in that deepest sibling — it shares the longest
        prefix with ``point`` among all non-winners — which is what answers
        ``nrsp``.
        """
        members = self._members
        prefix = 0
        sibling: Optional[Tuple[int, int]] = None
        for bit in range(self.bits - 1, -1, -1):
            if hi - lo == 1:
                break
            mid_value = prefix | (1 << bit)
            split = bisect.bisect_left(members, mid_value, lo, hi)
            if point & (1 << bit):
                if split < hi:
                    if split > lo:
                        sibling = (lo, split)
                    lo, prefix = split, mid_value
                # else: every member has this bit clear; the prefix keeps a 0.
            else:
                if split > lo:
                    if split < hi:
                        sibling = (split, hi)
                    hi = split
                else:
                    prefix = mid_value  # every member has this bit set
        return lo, sibling

    def responsible_for(self, point: int) -> int:
        if not self._members:
            raise EmptyNetworkError("the Kademlia overlay has no live nodes")
        point %= self.space_size
        return self._memoised_responsible(
            point,
            lambda p: self._members[self._descend(p, 0, len(self._members))[0]])

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def next_responsible(self, point: int) -> Optional[int]:
        """``nrsp``: the second XOR-closest live node to ``point``.

        The XOR metric is static (unlike zone splits in CAN), so the node that
        takes over after the responsible departs is always the current
        runner-up in distance.
        """
        if len(self._members) < 2:
            return None
        point %= self.space_size
        _, sibling = self._descend(point, 0, len(self._members))
        if sibling is None:  # pragma: no cover - unreachable with >= 2 members
            return None
        return self._members[self._descend(point, sibling[0], sibling[1])[0]]

    def neighbors(self, node_id: int) -> Set[int]:
        """The live contacts currently held in ``node_id``'s k-buckets."""
        table = self.routing_table(node_id)
        return {contact for contact in table.contacts() if contact in self._member_set}

    # ------------------------------------------------------------------ routing
    def route(self, origin: int, point: int, *, now: float = 0.0,
              trace: Optional[TraceSummary] = None) -> RouteResult:
        if origin not in self._member_set:
            raise NoSuchPeerError(origin)
        point %= self.space_size
        responsible = self.responsible_for(point)
        path, retries, timeouts = self._iterative_lookup(
            origin, point, self_distance=origin ^ point, trace=trace)
        if path[-1] != responsible:
            # Safety net (as in the other overlays): very sparse or very stale
            # tables may leave the iterative search short of the true closest
            # node; the final forced hop keeps the route well-defined and is
            # charged as a normal message.
            if trace is not None:
                trace.record_hop(path[-1], responsible)
            path.append(responsible)
        if trace is not None and retries:
            trace.record_route((), retries=retries, timeouts=timeouts)
        return RouteResult(tuple(path), responsible, retries, timeouts)

    def _iterative_lookup(self, origin: int, target: int, *, self_distance: Optional[int],
                          trace: Optional[TraceSummary] = None) -> Tuple[List[int], int, int]:
        """Kademlia's iterative node lookup, with message accounting.

        Returns ``(path, retries, timeouts)``: the nodes queried in order
        (starting at ``origin``), the number of queries that hit departed
        contacts, and how many of those had *failed* (timeout cost).  Each
        query is a hop recorded into ``trace``, if given, as it is sent.

        ``self_distance`` is the origin's own distance to the target
        (``origin ^ target``); a lookup stops once no known contact improves
        on the best node queried so far.  Passing ``None`` (bootstrap
        self-lookup) forces at least one round of queries even though the
        origin is trivially closest to its own identifier.
        """
        tables, k = self._tables, self.k
        is_live = self._member_set.__contains__
        table = tables[origin]
        rows, top = table._rows, (origin ^ target).bit_length() - 1
        # The shortlist is a run of XOR distances, farthest first (distances
        # to one target are unique, and ``distance ^ target`` is the contact).
        # A lookup stops at the first contact not nearer than the best node
        # queried, so only contacts nearer than that are worth keeping.  At
        # the start these are the rows at the set bits of ``self_distance``
        # (every contact for a bootstrap), whose distance ranges are disjoint
        # and ordered, nearest last in ``groups``: the next row is sorted in
        # only when the run is empty, and until a node answers, the lookup
        # changes no row but the one it runs.  A node that answers is the
        # nearest contact left, so the run becomes its reply's contacts
        # nearer than itself, and once those are spent the lookup is over.
        groups = ([table.contacts()] if self_distance is None else
                  [rows[index] for index in table._indices if self_distance >> index & 1])
        run: List[int] = []
        # Never queried (again): the origin and the contacts found dead.
        skip: Set[int] = {origin}
        path: List[int] = [origin]
        retries = 0
        timeouts = 0
        limit = 4 * self.bits + len(self._members)
        while len(path) + retries <= limit:
            if not run:
                if len(path) > 1 or not groups:
                    break
                run = sorted([contact ^ target for contact in groups.pop()], reverse=True)
                continue
            distance = run.pop()
            candidate = distance ^ target
            if not is_live(candidate):
                # Stale bucket entry: the query is wasted (a retry); failures
                # additionally cost a timeout in the cost model.  The origin
                # drops the unresponsive contact from its table.
                reason = self._departed.get(candidate, (DepartureReason.LEAVE, 0.0))[0]
                retries += 1
                if reason == DepartureReason.FAIL:
                    timeouts += 1
                skip.add(candidate)
                table.discard(candidate)
                continue
            if trace is not None:
                trace.record_hop(path[-1], candidate)
            path.append(candidate)
            # Direct communication updates both parties' buckets (both are
            # live, and the origin is never in the run)...
            table.observe(candidate, is_live)
            queried = tables[candidate]
            queried.observe(origin, is_live)
            # ...and the reply carries the k contacts closest to the target
            # from the queried node's table, which the origin learns (except
            # contacts this very lookup already found to be dead).  While the
            # origin's bucket ``top`` is full, the queried node lies within
            # ``2^top`` of the target: that bucket's contacts are nearer than
            # any other, so passing them means finding them all dead and
            # emptying it.  When the queried node's buckets below ``top`` then
            # hold k contacts, the whole reply falls in the full bucket, so
            # learning is a no-op and the run needs only the k nearest
            # contacts nearer than the queried node.
            held, count = queried._rows, 0
            if len(rows.get(top, ())) >= k:
                for index in reversed(queried._indices):
                    if index < top:
                        count += len(held[index])
                        if count >= k:
                            break
            if count < k:
                reply = queried.closest(target, k)
                table.learn_many(reply, skip)
            else:
                reply = queried.nearer_than_owner(target)
                reply.sort(key=target.__xor__)
                del reply[k:]
            run = [nearer for contact in reversed(reply)
                   if (nearer := contact ^ target) < distance and contact not in skip]
        return path, retries, timeouts

    def _observe(self, node_id: int, contact: int) -> None:
        table = self._tables.get(node_id)
        if table is not None and contact != node_id:
            table.observe(contact, self._member_set.__contains__)

    # ---------------------------------------------------------------- utilities
    def routing_table(self, node_id: int) -> RoutingTable:
        """The k-buckets of a live node (read access for tests/diagnostics)."""
        table = self._tables.get(node_id)
        if table is None:
            raise NoSuchPeerError(node_id)
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KademliaOverlay(bits={self.bits}, k={self.k}, "
                f"nodes={len(self._members)})")
