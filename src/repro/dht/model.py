"""Abstract DHT model (Section 2.1 of the paper).

The paper models a DHT by its *mapping function* ``m(k, h, t)``: the peer that
is responsible for key ``k`` with respect to hash function ``h`` at time ``t``.
This module provides:

* :class:`DHTProtocol` — the interface the overlay implementations (Chord,
  CAN) provide to the network layer: membership changes, responsibility
  resolution (``rsp(k, h)``) and greedy routing paths;
* :class:`RouteResult` and :class:`LookupResult`, the tuples the overlays and
  the network layer return from a route and a lookup;
* :func:`slotted_init`, the cheaper ``__init__`` every frozen record on the
  core path (stored replicas, timestamps, service results) is built through.
"""

from __future__ import annotations

import abc
from dataclasses import MISSING, fields
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Type, TypeVar, cast)

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
    """Interface of an overlay protocol (Chord, CAN).

    The overlay tracks only membership and responsibility over the identifier
    space ``[0, 2^bits)``; data placement, replication and services live above
    it (in :class:`repro.dht.network.DHTNetwork` and :mod:`repro.core`).
    """

    #: number of bits of the identifier space
    bits: int

    #: Membership version counter.  Implementations increment it on every
    #: ``add_node``/``remove_node`` (via :meth:`_membership_changed`) so that
    #: responsibility and routing-state caches (both the overlay's own and any
    #: held by callers) can be keyed on the version and invalidated
    #: incrementally instead of recomputed per query.  Overlays that never
    #: change membership may leave it at 0.
    version: int = 0

    _departed: Dict[int, Tuple[str, float]]  # departed node -> (reason, time)

    @property
    def protocol_name(self) -> str:
        """The overlay's class name (``"ChordRing"``, ``"KademliaOverlay"``, ...).

        The server's ``info`` reply and the adversary's capture-mode table
        name overlays by it.
        """
        return type(self).__name__

    # --------------------------------------------- versioned-cache plumbing
    # Shared by the overlay implementations so the invalidation protocol
    # lives in exactly one place: call ``_init_version_caches()`` during
    # construction, ``_membership_changed(moved)`` after every membership
    # mutation, serve ``responsible_for`` through the memo helper and
    # ``nodes`` from ``_nodes_cache`` (read inline: every random origin draw
    # calls it).  Subclasses with additional version-keyed caches clear them
    # in ``_clear_version_caches``.

    def _init_version_caches(self) -> None:
        self.version = 0
        self._rsp_cache: Dict[int, int] = {}
        # The reverse index of ``_rsp_cache``: responsible -> its memoised
        # points, each point listed once, so eviction costs what it evicts.
        self._rsp_points: Dict[int, List[int]] = {}
        self._nodes_cache: Optional[Tuple[int, ...]] = None

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

    @abc.abstractmethod
    def nodes(self) -> Sequence[int]:
        """Identifiers of the live nodes, in protocol-defined order."""

    @abc.abstractmethod
    def __contains__(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live overlay node."""

    def __len__(self) -> int:
        return len(self.nodes())

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
    def route(self, origin: int, point: int, *, now: float = 0.0,
              trace: Optional[TraceSummary] = None) -> RouteResult:
        """Greedy-route from ``origin`` towards ``point``.

        The returned path ends at ``responsible_for(point)``.  Implementations
        model routing-state staleness (e.g. Chord fingers pointing at departed
        peers) through the ``retries``/``timeouts`` fields of the result.
        Given a ``trace``, the walk records its hops as it goes, then retries.
        """

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
