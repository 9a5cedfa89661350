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
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    List,
    MutableSequence,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.model import DepartureReason, DHTProtocol, RouteResult

__all__ = [
    "KBucket",
    "KademliaOverlay",
    "RoutingTable",
    "common_prefix_length",
    "xor_distance",
]


def xor_distance(first: int, second: int) -> int:
    """The Kademlia distance ``d(a, b) = a XOR b``."""
    return first ^ second


def common_prefix_length(first: int, second: int, bits: int) -> int:
    """Number of leading bits shared by two ``bits``-wide identifiers."""
    distance = first ^ second
    if distance == 0:
        return bits
    return bits - distance.bit_length()


@dataclass
class KBucket:
    """One k-bucket: up to ``capacity`` contacts in least-recently-seen order.

    ``contacts[0]`` is the least recently seen contact, ``contacts[-1]`` the
    most recently seen one.  A :class:`RoutingTable` keeps bare rows and
    wraps one in a ``KBucket`` to apply these rules to it.
    """

    capacity: int
    contacts: MutableSequence[int] = field(default_factory=list)

    def __contains__(self, contact: int) -> bool:
        return contact in self.contacts

    def __len__(self) -> int:
        return len(self.contacts)

    @property
    def full(self) -> bool:
        return len(self.contacts) >= self.capacity

    def observe(self, contact: int, is_alive: Callable[[int], bool]) -> bool:
        """Record direct communication with ``contact`` (Kademlia's update rule).

        A known contact moves to the most-recently-seen end.  A new contact is
        appended while there is room; when the bucket is full the
        least-recently-seen entry is pinged: if it answers it moves to the
        tail and the newcomer is dropped, otherwise it is evicted and the
        newcomer takes its place.  Returns ``True`` when ``contact`` is in the
        bucket afterwards.
        """
        if contact in self.contacts:
            self.contacts.remove(contact)
            self.contacts.append(contact)
            return True
        if not self.full:
            self.contacts.append(contact)
            return True
        least_recently_seen = self.contacts[0]
        if is_alive(least_recently_seen):
            # The LRS contact answered the ping: keep it (old contacts are the
            # most likely to stay online) and drop the newcomer.
            self.contacts.pop(0)
            self.contacts.append(least_recently_seen)
            return False
        self.contacts.pop(0)
        self.contacts.append(contact)
        return True

    def learn(self, contact: int) -> bool:
        """Record a contact learned second-hand (from a lookup reply).

        Passively learned contacts never displace existing entries and do not
        refresh recency; they are only appended when there is room.
        """
        if contact in self.contacts:
            return True
        if self.full:
            return False
        self.contacts.append(contact)
        return True

    def discard(self, contact: int) -> None:
        """Drop ``contact`` (e.g. after it failed to answer a lookup)."""
        try:
            self.contacts.remove(contact)
        except ValueError:
            pass


class RoutingTable:
    """The k-buckets of one node, indexed by XOR-distance magnitude.

    Bucket ``i`` holds contacts at distance ``[2^i, 2^(i+1))`` from the owner,
    i.e. contacts whose common prefix with the owner is ``bits - 1 - i`` bits.
    Each bucket is one row (a list here, a packed array in the columnar
    table) under the :class:`KBucket` rules; rows are created lazily and most
    of the ``bits`` buckets stay empty.
    """

    def __init__(self, owner: int, bits: int, k: int) -> None:
        self.owner = owner
        self.bits = bits
        self.k = k
        self._rows: Dict[int, MutableSequence[int]] = {}

    def _new_row(self) -> MutableSequence[int]:
        """Representation hook: the empty row of a bucket seen for the first time."""
        return []

    def _row(self, index: int) -> MutableSequence[int]:
        row = self._rows.get(index)
        if row is None:
            row = self._rows[index] = self._new_row()
        return row

    def bucket_index(self, contact: int) -> int:
        """Index of the bucket responsible for ``contact``."""
        distance = self.owner ^ contact
        if distance == 0:
            raise InvalidConfigurationError(
                f"node {self.owner} cannot keep itself in its routing table")
        return distance.bit_length() - 1

    def bucket(self, index: int) -> KBucket:
        """The bucket at ``index`` (created empty on first access)."""
        return KBucket(self.k, self._row(index))

    def observe(self, contact: int, is_alive: Callable[[int], bool]) -> bool:
        """Record direct communication with ``contact``."""
        if contact == self.owner:
            return False
        row = self._row((self.owner ^ contact).bit_length() - 1)
        return KBucket(self.k, row).observe(contact, is_alive)

    def learn(self, contact: int) -> bool:
        """Record a contact learned from a lookup reply."""
        if contact == self.owner:
            return False
        row = self._row((self.owner ^ contact).bit_length() - 1)
        return KBucket(self.k, row).learn(contact)

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
        entries: List[int] = []
        for index in sorted(self._rows):
            entries.extend(self._rows[index])
        return entries

    def closest(self, point: int, count: int) -> List[int]:
        """The ``count`` known contacts closest (XOR) to ``point``, nearest first.

        The buckets are read in XOR order and only sorted within: with
        ``d = owner ^ point``, a contact of bucket ``i`` lies at distance
        ``d`` with bit ``i`` flipped and the lower bits free.  Where bit ``i``
        of ``d`` is set the flip clears it, so bucket ``i`` is nearer than
        every lower bucket; elsewhere the flip sets it, so bucket ``i`` is
        farther than every lower one.  Hence: set bits from the top down, then
        the other buckets from the bottom up, stopping at ``count``.
        """
        rows = self._rows
        delta = self.owner ^ point
        ascending = sorted(rows)
        order = [index for index in reversed(ascending) if delta >> index & 1]
        order += [index for index in ascending if not delta >> index & 1]
        found: List[int] = []
        for index in order:
            found.extend(sorted(rows[index], key=point.__xor__))
            if len(found) >= count:
                break
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
    alpha:
        Lookup concurrency of the original protocol.  The simulated lookup is
        sequential (messages, not wall-clock, are what the cost model needs)
        and never reads it: ``alpha`` is validated and stored so that
        constructor calls written for the original protocol keep working.
    rng:
        Random source used for bootstrap-contact selection on joins.
    """

    def __init__(self, bits: int = 32, *, k: int = 16, alpha: int = 3,
                 rng: Optional[random.Random] = None) -> None:
        if not 3 <= bits <= 160:
            raise InvalidConfigurationError(
                f"kademlia identifier space must use between 3 and 160 bits, got {bits}")
        if k < 1:
            raise InvalidConfigurationError("bucket capacity k must be >= 1")
        if alpha < 1:
            raise InvalidConfigurationError("lookup concurrency alpha must be >= 1")
        self.bits = bits
        #: Number of points in the identifier space.
        self.space_size = 1 << bits
        self.k = k
        self.alpha = alpha
        self._rng = rng if rng is not None else random.Random(0)
        # Sorted live node identifiers.  Declared as a mutable sequence so the
        # columnar subclass can swap in a packed array('Q') column.
        self._members: MutableSequence[int] = []
        self._member_set: Set[int] = set()
        self._departed: Dict[int, Tuple[str, float]] = {}
        self._tables: Dict[int, RoutingTable] = {}
        # Routing *tables* mutate continuously with lookup traffic, but XOR
        # responsibility depends only on the live membership, so the
        # point -> closest-member memo keys on the version counter alone.
        self._init_version_caches()

    # ------------------------------------------------------------------ sizing
    def nodes(self) -> Sequence[int]:
        return self._cached_nodes(lambda: tuple(self._members))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._member_set

    def __len__(self) -> int:
        return len(self._members)

    def _is_live(self, node_id: int) -> bool:
        return node_id in self._member_set

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
        self._membership_changed()
        table = self._new_table(node_id)
        self._tables[node_id] = table
        if affected:
            # Join protocol: seed the table with a bootstrap contact (a
            # uniformly random member other than the newcomer), then look up
            # the own identifier to populate the buckets near it.
            draw = self._rng.randrange(len(self._members) - 1)
            bootstrap = self._members[draw if draw < index else draw + 1]
            table.observe(bootstrap, self._is_live)
            self._iterative_lookup(node_id, node_id, self_distance=None)
            # The newcomer and the nodes it displaces exchange the handover
            # traffic, so they learn about each other directly.
            for previous_owner in affected:
                self._observe(node_id, previous_owner)
                self._observe(previous_owner, node_id)
        return affected

    def _new_table(self, node_id: int) -> RoutingTable:
        """Representation hook: build the routing table of a joining node.

        The columnar overlay (:mod:`repro.dht.columnar.kademlia`) overrides
        this to return packed-array-backed buckets; the routing algorithms
        above only use the :class:`RoutingTable` API, so the two
        representations stay behaviourally identical.
        """
        return RoutingTable(node_id, self.bits, self.k)

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

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        index = bisect.bisect_left(self._members, node_id)
        self._members.pop(index)
        self._member_set.discard(node_id)
        self._tables.pop(node_id, None)
        self._departed[node_id] = (reason, now)
        self._membership_changed()
        # Other nodes keep the departed contact in their buckets until a
        # lookup runs into it (stale-state realism; there is no oracle purge).

    def departure_reason(self, node_id: int) -> Optional[str]:
        """How a departed node left (``"leave"``/``"fail"``), if known."""
        record = self._departed.get(node_id)
        return record[0] if record else None

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
        table = self._table_of(node_id)
        return {contact for contact in table.contacts() if contact in self._member_set}

    # ------------------------------------------------------------------ routing
    def route(self, origin: int, point: int, *, now: float = 0.0) -> RouteResult:
        if origin not in self._member_set:
            raise NoSuchPeerError(origin)
        point %= self.space_size
        responsible = self.responsible_for(point)
        path, retries, timeouts = self._iterative_lookup(
            origin, point, self_distance=origin ^ point)
        if path[-1] != responsible:
            # Safety net (as in the other overlays): very sparse or very stale
            # tables may leave the iterative search short of the true closest
            # node; the final forced hop keeps the route well-defined and is
            # charged as a normal message.
            path.append(responsible)
        return RouteResult(path=tuple(path), responsible=responsible,
                           retries=retries, timeouts=timeouts)

    def _iterative_lookup(self, origin: int, target: int, *,
                          self_distance: Optional[int]) -> Tuple[List[int], int, int]:
        """Kademlia's iterative node lookup, with message accounting.

        Returns ``(path, retries, timeouts)``: the nodes queried in order
        (starting at ``origin``), the number of queries that hit departed
        contacts, and how many of those had *failed* (timeout cost).

        ``self_distance`` is the origin's own distance to the target; a
        lookup stops once no known contact improves on the best node queried
        so far.  Passing ``None`` (bootstrap self-lookup) forces at least one
        round of queries even though the origin is trivially closest to its
        own identifier.
        """
        table = self._tables[origin]
        # The shortlist is a heap of XOR distances: distances to one target
        # are unique and ``distance ^ target`` is the contact.  The best
        # distance only ever falls and a candidate at or beyond it ends the
        # lookup, so only contacts nearer than it are worth keeping.
        contacts = table.contacts()
        if self_distance is not None:
            contacts = [contact for contact in contacts
                        if contact ^ target < self_distance]
        shortlist = [contact ^ target for contact in contacts]
        heapify(shortlist)
        seen: Set[int] = {origin, *contacts}
        dead: Set[int] = set()
        path: List[int] = [origin]
        retries = 0
        timeouts = 0
        best_distance = self_distance
        limit = 4 * self.bits + len(self._members)
        while shortlist and len(path) + retries <= limit:
            distance = heappop(shortlist)
            if best_distance is not None and distance >= best_distance:
                break  # converged: nobody known is closer than the best queried
            candidate = distance ^ target
            if candidate not in self._member_set:
                # Stale bucket entry: the query is wasted (a retry); failures
                # additionally cost a timeout in the cost model.  The origin
                # drops the unresponsive contact from its table.
                reason = self._departed.get(candidate, (DepartureReason.LEAVE, 0.0))[0]
                retries += 1
                if reason == DepartureReason.FAIL:
                    timeouts += 1
                dead.add(candidate)
                table.discard(candidate)
                continue
            path.append(candidate)
            # Direct communication updates both parties' buckets...
            self._observe(origin, candidate)
            self._observe(candidate, origin)
            # ...and the reply carries the k contacts closest to the target
            # from the queried node's table, which the origin learns (except
            # contacts this very lookup already found to be dead).
            reply = self._tables[candidate].closest(target, self.k)
            table.learn_many(reply, dead)
            best_distance = distance
            if distance == 0:
                break
            for learned in reply:
                nearer = learned ^ target
                if nearer >= distance:
                    break  # the reply is nearest first
                if learned not in seen:
                    seen.add(learned)
                    heappush(shortlist, nearer)
        return path, retries, timeouts

    def _observe(self, node_id: int, contact: int) -> None:
        table = self._tables.get(node_id)
        if table is not None and contact != node_id:
            table.observe(contact, self._is_live)

    # ---------------------------------------------------------------- utilities
    def routing_table(self, node_id: int) -> RoutingTable:
        """The k-buckets of a live node (read access for tests/diagnostics)."""
        return self._table_of(node_id)

    def _table_of(self, node_id: int) -> RoutingTable:
        table = self._tables.get(node_id)
        if table is None:
            raise NoSuchPeerError(node_id)
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KademliaOverlay(bits={self.bits}, k={self.k}, "
                f"nodes={len(self._members)})")
