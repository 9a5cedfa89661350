"""Abstract DHT model (Section 2.1 of the paper).

The paper models a DHT by its *mapping function* ``m(k, h, t)``: the peer that
is responsible for key ``k`` with respect to hash function ``h`` at time ``t``.
This module provides:

* :class:`DHTProtocol` — the interface the overlay implementations (Chord,
  CAN, Kademlia) provide to the network layer: membership changes,
  responsibility resolution (``rsp(k, h)``) and one routing walk,
  :meth:`~DHTProtocol.walk`, which returns a bare tuple.  The base class
  keeps the one membership record (who is live, how each departed node
  left) that every overlay and the network read;
* :class:`RouteResult` and :class:`LookupResult`, the tuples
  :meth:`DHTProtocol.route` and the network layer's ``lookup`` build around a
  walk (the data path reads the walk itself and builds neither);
* :func:`slotted_init`, the cheaper ``__init__`` every frozen record on the
  core path (stored replicas, timestamps, service results) is built through.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import MISSING, fields
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Type, TypeVar, cast)

from repro.dht.errors import InvalidConfigurationError, NodeAlreadyPresentError, NoSuchPeerError
from repro.dht.messages import TraceSummary

__all__ = [
    "DHTProtocol",
    "DepartureReason",
    "LookupResult",
    "RouteResult",
    "slotted_init",
]


#: How a node left the overlay; normal leaves allow the direct counter
#: initialisation algorithm, failures force the indirect one.
class DepartureReason:
    LEAVE = "leave"
    FAIL = "fail"


#: Bound of the per-overlay point -> responsible memo.  Membership changes
#: evict only the moved nodes' entries; reaching the bound clears it whole.
_RSP_CACHE_SIZE = 1 << 16


class RouteResult(NamedTuple):
    """Result of routing from an origin node towards an identifier point.

    Attributes
    ----------
    path:
        Node identifiers visited, starting at the origin and ending at the
        responsible node.  ``len(path) - 1`` is the number of routing hops.
    responsible:
        The node responsible for the target point (always ``path[-1]``).
    retries:
        Extra messages spent skipping fingers that point to departed nodes.
    timeouts:
        How many of those retries hit a *failed* node (these cost a timeout
        delay in the cost model; nodes that left normally redirect cheaply).
    """

    path: Tuple[int, ...]
    responsible: int
    retries: int = 0
    timeouts: int = 0

    @property
    def hops(self) -> int:
        """Number of routing hops (messages) along the path."""
        return max(0, len(self.path) - 1)

    @property
    def message_count(self) -> int:
        """Total messages attributable to the route, including retries."""
        return self.hops + self.retries


#: What :meth:`DHTProtocol.walk` returns: ``(path, responsible, retries, timeouts)``.
Walk = Tuple[List[int], int, int, int]


class LookupResult(NamedTuple):
    """Result of the DHT lookup service for ``rsp(k, h)`` seen from a peer."""

    key: object
    hash_name: str
    point: int
    responsible: int
    route: RouteResult

    @property
    def hops(self) -> int:
        return self.route.hops


class DHTProtocol(abc.ABC):
    """Interface of an overlay protocol (Chord, CAN, Kademlia).

    The overlay tracks only membership and responsibility over the identifier
    space ``[0, 2^bits)``; data placement, replication and services live above
    it (in :class:`repro.dht.network.DHTNetwork` and :mod:`repro.core`).

    Membership lives here, once for every overlay: the sorted live ids
    (:meth:`nodes`, ``in``, ``len``) and how each departed id left
    (:meth:`departure_reason`).  A subclass keeps only its routing state
    (fingers, k-buckets, zones): its ``add_node`` calls :meth:`_check_join`
    and :meth:`_enter`, its ``remove_node`` calls :meth:`_exit`.
    """

    #: Number of bits of the identifier space.
    bits: int

    #: Membership version counter.  :meth:`_membership_changed` increments it
    #: on every ``add_node``/``remove_node`` so that responsibility and
    #: routing-state caches (both the overlay's own and any held by callers)
    #: can be keyed on the version and invalidated incrementally instead of
    #: recomputed per query.
    version: int

    def __init__(self, bits: int) -> None:
        self.bits = bits
        #: Number of points in the identifier space.
        self.space_size = 1 << bits
        # The membership record: the live ids, sorted and as a set, and how
        # each departed id left, ``(reason, time)``, until it rejoins.
        self._members: List[int] = []
        self._member_set: Set[int] = set()
        self._departed: Dict[int, Tuple[str, float]] = {}
        self.version = 0
        self._rsp_cache: Dict[int, int] = {}
        # The reverse index of ``_rsp_cache``: responsible -> its memoised
        # points, each point listed once, so eviction costs what it evicts.
        self._rsp_points: Dict[int, List[int]] = {}
        self._nodes_cache: Optional[Tuple[int, ...]] = None

    @property
    def protocol_name(self) -> str:
        """The overlay's class name (``"ChordRing"``, ``"KademliaOverlay"``, ...).

        The server's ``info`` reply and the adversary's capture-mode table
        name overlays by it.
        """
        return type(self).__name__

    # ------------------------------------------------------------- membership
    # The versioned caches live with the membership record: ``nodes`` is
    # served from ``_nodes_cache`` (every random origin draw calls it), every
    # change ends with ``_membership_changed(moved)`` (``_exit`` calls it; a
    # join calls it once its affected set is known), and ``responsible_for``
    # goes through the memo helper.  Subclasses with additional version-keyed
    # caches clear them in ``_clear_version_caches``.

    def nodes(self) -> Sequence[int]:
        """Identifiers of the live nodes, ascending."""
        if self._nodes_cache is None:
            self._nodes_cache = tuple(self._members)
        return self._nodes_cache

    def __contains__(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live overlay node."""
        return node_id in self._member_set

    def __len__(self) -> int:
        return len(self._members)

    def _check_join(self, node_id: int) -> None:
        """Refuse a join of an id outside ``[0, 2^bits)`` or already live."""
        if not 0 <= node_id < self.space_size:
            raise InvalidConfigurationError(
                f"node id {node_id} outside identifier space [0, 2^{self.bits})")
        if node_id in self._member_set:
            raise NodeAlreadyPresentError(node_id)

    def _enter(self, node_id: int) -> int:
        """Add a checked ``node_id`` to the live ids; returns its sorted index."""
        index = bisect.bisect_left(self._members, node_id)
        self._members.insert(index, node_id)
        self._member_set.add(node_id)
        self._departed.pop(node_id, None)
        return index

    def _exit(self, node_id: int, reason: str, now: float) -> None:
        """Record that the live ``node_id`` left by ``reason`` at ``now``.

        Raises :class:`NoSuchPeerError` for a node that is not live, changing
        nothing; otherwise ends with :meth:`_membership_changed` for it.
        """
        if node_id not in self._member_set:
            raise NoSuchPeerError(node_id)
        del self._members[bisect.bisect_left(self._members, node_id)]
        self._member_set.discard(node_id)
        self._departed[node_id] = (reason, now)
        self._membership_changed((node_id,))

    def _membership_changed(self, moved: Iterable[int]) -> None:
        """Advance the membership version and evict the moved nodes' points.

        ``moved`` holds every node that can have lost points to the change:
        on a join the nodes ``add_node`` returns (the Responsibility Loss
        Aware contract), on a departure the departed node.  No other memo
        entry changes owner, so the rest of the memo stays valid.
        """
        self.version += 1
        cache, index = self._rsp_cache, self._rsp_points
        for node in moved:
            for point in index.pop(node, ()):
                del cache[point]
        self._nodes_cache = None
        self._clear_version_caches()

    def _clear_version_caches(self) -> None:
        """Hook: subclasses drop any additional version-keyed caches here."""

    def _memoised_responsible(self, point: int,
                              compute: Callable[[int], int]) -> int:
        """Bounded point -> responsible memo, valid for the current version."""
        cached = self._rsp_cache.get(point)
        if cached is None:
            cached = compute(point)
            if len(self._rsp_cache) >= _RSP_CACHE_SIZE:
                self._rsp_cache.clear()
                self._rsp_points.clear()
            self._rsp_cache[point] = cached
            self._rsp_points.setdefault(cached, []).append(point)
        return cached

    # --------------------------------------------------------------- topology
    @abc.abstractmethod
    def add_node(self, node_id: int, *, now: float = 0.0) -> Set[int]:
        """Add ``node_id`` to the overlay.

        Returns the set of *affected* live nodes — the nodes that may have
        lost responsibility for part of their identifier range to the new
        node.  The network layer re-examines their stored data and hands over
        what now belongs to the newcomer (this is what makes the overlay
        *Responsibility Loss Aware*, Section 4.3).
        """

    @abc.abstractmethod
    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        """Remove ``node_id`` from the overlay (normal leave or failure)."""

    # ----------------------------------------------------------- responsibility
    @abc.abstractmethod
    def responsible_for(self, point: int) -> int:
        """The live node currently responsible for identifier ``point``.

        This is the overlay-level realisation of the paper's ``rsp(k, h)``
        where ``point = h(k)``.
        """

    @abc.abstractmethod
    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def next_responsible(self, point: int) -> Optional[int]:
        """The node that would take over ``point`` if its responsible departed.

        This is the paper's ``nrsp(k, h)``.  Both Chord and CAN guarantee the
        next responsible is a *neighbour* of the current one (Section 4.2.1),
        which is what makes the direct counter-transfer algorithm O(1).
        """

    @abc.abstractmethod
    def neighbors(self, node_id: int) -> Set[int]:
        """The overlay neighbours of ``node_id`` (routing-table peers)."""

    def departure_reason(self, node_id: int) -> Optional[str]:
        """How a departed node left (``"leave"``/``"fail"``), if known."""
        record = self._departed.get(node_id)
        return record[0] if record else None

    def claimed_span(self, node_id: int) -> Optional[Tuple[int, int]]:
        """The contiguous identifier interval owned by ``node_id``, if any.

        Overlays whose responsibility regions are contiguous in the integer
        identifier space (Chord) return the wrapping interval
        ``(predecessor, node_id]`` so the network layer can hand over the
        entries of that interval.  Overlays with non-contiguous regions
        (CAN's packed coordinates, Kademlia's XOR balls) return ``None`` and
        the network falls back to a per-entry responsibility check.
        """
        return None

    # ------------------------------------------------------------------ routing
    @abc.abstractmethod
    def walk(self, origin: int, point: int, now: float) -> Walk:
        """Greedy-route from ``origin`` towards ``point``, recording nothing:
        ``(path, responsible, retries, timeouts)``, the nodes visited from the
        origin to ``responsible_for(point)``, then the extra messages spent on
        stale routing state and how many of those hit a *failed* peer."""

    def route(self, origin: int, point: int, *, now: float = 0.0,
              trace: Optional[TraceSummary] = None) -> RouteResult:
        """:meth:`walk` as a :class:`RouteResult`; given a ``trace``, the
        finished walk records its path, then its retries, in one
        ``trace.record_route`` call."""
        path, responsible, retries, timeouts = self.walk(origin, point, now)
        if trace is not None:
            trace.record_route(path, retries=retries, timeouts=timeouts)
        return RouteResult(tuple(path), responsible, retries, timeouts)

    # ---------------------------------------------------------------- utilities

_Record = TypeVar("_Record")


def slotted_init(cls: Type[_Record]) -> Type[_Record]:
    """Give a ``dataclass(frozen=True, slots=True)`` class a cheaper ``__init__``.

    A frozen dataclass's generated ``__init__`` calls ``object.__setattr__``
    once per field, which looks the name up on the type each time.  The
    replacement keeps its parameters, defaults, annotations and
    ``__post_init__`` call, but fills each slot through the slot's member
    descriptor ``__set__``, bound once here.
    """
    namespace: Dict[str, Any] = {}
    parameters: List[str] = []
    annotations: Dict[str, Any] = {}
    body: List[str] = []
    for field in fields(cast(Any, cls)):
        name = field.name
        if field.default_factory is not MISSING or not field.init:
            raise TypeError(f"{cls.__name__}.{name}: slotted_init takes plain fields only")
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        if field.default is MISSING:
            parameters.append(name)
        else:
            namespace[f"_default_{name}"] = field.default
            parameters.append(f"{name}=_default_{name}")
        annotations[name] = field.type
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(parameters)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__annotations__ = {**annotations, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, "__init__", init)
    return cls
