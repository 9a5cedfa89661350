"""In-process replicated DHT network.

:class:`DHTNetwork` hosts a population of peers on top of an overlay protocol
(any overlay registered in :mod:`repro.dht.registry`: Chord, CAN, Kademlia or
a runtime-registered backend) and exposes the two operations the paper
assumes of the DHT (Section 2.2):

* ``put_h(k, data)`` — store a pair at ``rsp(k, h)``;
* ``get_h(k)``       — retrieve the pair stored at ``rsp(k, h)``;

plus the churn operations (join, normal leave, failure) with the data handover
behaviour of a *Responsibility Loss Aware* DHT: on joins and normal leaves the
previous responsible hands its pairs to the new responsible, while failures
lose the failed peer's replicas.

Every operation can record its messages in a
:class:`~repro.dht.messages.TraceSummary`, which the services use for
communication-cost accounting.  A trace from :meth:`DHTNetwork.new_trace`
also hands each message to :attr:`DHTNetwork.on_message`, when it is set, as
the simulation harness sets it to price a retrieve's response time.
Services that need to react to churn (notably KTS, for counter transfer and
Rule 3 of the Valid Counter Set) register a :class:`NetworkObserver`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.dht import registry
from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NoSuchPeerError,
)
from repro.dht.hashing import PairwiseIndependentHash
from repro.dht.messages import MessageHook, MessageKind, MessageSizes, TraceSummary
from repro.dht.model import (
    DepartureReason,
    DHTProtocol,
    LookupResult,
    RouteResult,
)
from repro.dht.storage import LocalStore, StoredValue

__all__ = ["DHTNetwork", "NetworkObserver", "NetworkStats", "PeerState",
           "SYNC_SUMMARY_ENTRY_BYTES", "SyncReport"]


class NetworkObserver:
    """Callbacks invoked by the network when membership changes.

    Subclasses override the hooks they care about; the defaults are no-ops.
    """

    def peer_joined(self, network: "DHTNetwork", peer_id: int,
                    affected: Set[int]) -> None:
        """A new peer joined; ``affected`` are peers that may have lost keys to it."""

    def peer_leaving(self, network: "DHTNetwork", peer_id: int) -> None:
        """A peer is about to leave normally (still part of the overlay)."""

    def peer_left(self, network: "DHTNetwork", peer_id: int) -> None:
        """A peer has left normally (already removed from the overlay)."""

    def peer_failed(self, network: "DHTNetwork", peer_id: int) -> None:
        """A peer failed abruptly (state lost, already removed from the overlay)."""


@dataclass
class PeerState:
    """Mutable state of one peer: its local replica store and liveness."""

    peer_id: int
    store: LocalStore = field(default_factory=LocalStore)
    joined_at: float = 0.0
    alive: bool = True


@dataclass
class NetworkStats:
    """Global counters maintained by the network (maintenance traffic etc.)."""

    maintenance_messages: int = 0
    handover_entries: int = 0
    #: Entries a handover or sync *skipped* because the destination's copy
    #: had not fallen behind — the savings of delta replication.
    handover_entries_skipped: int = 0
    lost_entries: int = 0
    joins: int = 0
    leaves: int = 0
    failures: int = 0
    sync_rounds: int = 0
    sync_entries_shipped: int = 0


#: The ``(request, reply)`` message kinds of the two data exchanges.
_GET = (MessageKind.GET_REQUEST, MessageKind.GET_REPLY)
_PUT = (MessageKind.PUT_REQUEST, MessageKind.PUT_ACK)

#: Sort key of the handover order: ascending identifier point.
_BY_POINT = attrgetter("point")

#: Modeled size of one per-entry token inside a SYNC_SUMMARY message: a key
#: digest plus a timestamp/version counter.  Tiny next to ``data_bytes``,
#: which is why shipping summaries beats shipping state.
SYNC_SUMMARY_ENTRY_BYTES = 8


@dataclass(frozen=True)
class SyncReport:
    """Outcome of one delta-sync exchange (:meth:`DHTNetwork.sync_span`).

    ``full_bytes`` is the modeled cost of the naive alternative — shipping
    every entry the source holds in the span — so
    :attr:`transfer_ratio` measures what the delta exchange saved.
    """

    source: int
    dest: int
    entries_considered: int
    entries_shipped: int
    entries_applied: int
    summary_entries: int
    summary_bytes: int
    delta_bytes: int
    full_bytes: int

    @property
    def transfer_bytes(self) -> int:
        """Total bytes the delta exchange put on the wire (summary + delta)."""
        return self.summary_bytes + self.delta_bytes

    @property
    def transfer_ratio(self) -> float:
        """Delta-exchange bytes as a fraction of a full-state transfer."""
        if self.full_bytes <= 0:
            return 0.0
        return self.transfer_bytes / self.full_bytes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (embedded in sync artifacts and reports)."""
        return {"source": self.source, "dest": self.dest,
                "entries_considered": self.entries_considered,
                "entries_shipped": self.entries_shipped,
                "entries_applied": self.entries_applied,
                "summary_entries": self.summary_entries,
                "summary_bytes": self.summary_bytes,
                "delta_bytes": self.delta_bytes,
                "full_bytes": self.full_bytes,
                "transfer_bytes": self.transfer_bytes,
                "transfer_ratio": self.transfer_ratio}


class DHTNetwork:
    """A population of peers running a DHT overlay with replica storage.

    Parameters
    ----------
    protocol:
        Either an already-built :class:`DHTProtocol`, or the name of an
        overlay registered in :mod:`repro.dht.registry` (``"chord"``,
        ``"can"``, ``"kademlia"``, ...) to build one with the given ``bits``.
    bits:
        Identifier-space size used when ``protocol`` is a string.
    stabilization_interval:
        Passed to the Chord overlay: how often (simulated seconds) peers
        refresh their finger tables.  Governs how strongly failures degrade
        routing (paper Figure 11).
    seed / rng:
        Randomness source for peer identifiers and random origins.
    """

    def __init__(self, protocol: Union[str, DHTProtocol] = "chord", *,
                 bits: int = 32, stabilization_interval: float = 30.0,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rng is not None and seed is not None:
            raise ValueError("pass either 'seed' or 'rng', not both")
        self.rng = rng if rng is not None else random.Random(seed)
        if isinstance(protocol, str):
            protocol = registry.create_overlay(
                protocol, bits=bits, stabilization_interval=stabilization_interval,
                rng=random.Random(self.rng.getrandbits(64)))
        self.protocol = protocol
        self.bits = protocol.bits
        self.message_sizes = MessageSizes()
        #: Handed to every trace :meth:`new_trace` makes (``None``: no hook).
        self.on_message: Optional[MessageHook] = None
        self.now: float = 0.0
        self.stats = NetworkStats()
        self._peers: Dict[int, PeerState] = {}
        self._departed_peers: Dict[int, PeerState] = {}
        self._observers: List[NetworkObserver] = []

    # ------------------------------------------------------------- construction
    @classmethod
    def build(cls, num_peers: int, *, protocol: Union[str, DHTProtocol] = "chord",
              **kwargs: Any) -> "DHTNetwork":
        """Create a network and join ``num_peers`` peers with fresh identifiers.

        The maintenance counters are reset afterwards so that experiment
        statistics only reflect post-construction activity.
        """
        if num_peers < 1:
            raise ValueError("num_peers must be >= 1")
        network = cls(protocol=protocol, **kwargs)
        for _ in range(num_peers):
            network.join_peer()
        network.stats = NetworkStats()
        return network

    # ----------------------------------------------------------------- peers
    @property
    def size(self) -> int:
        """Number of live peers."""
        return len(self._peers)

    def alive_peer_ids(self) -> List[int]:
        """Identifiers of the live peers (overlay order)."""
        return list(self.protocol.nodes())

    def peer(self, peer_id: int) -> PeerState:
        """The state of a live peer (raises :class:`NoSuchPeerError` otherwise)."""
        state = self._peers.get(peer_id)
        if state is None or not state.alive:
            raise NoSuchPeerError(peer_id)
        return state

    def departed_peer(self, peer_id: int) -> Optional[PeerState]:
        """The final state of a departed peer, if it ever existed."""
        return self._departed_peers.get(peer_id)

    def is_alive(self, peer_id: int) -> bool:
        """Whether ``peer_id`` designates a live peer."""
        return peer_id in self._peers

    def random_alive_peer(self) -> int:
        """A uniformly random live peer identifier."""
        return self._resolve_origin(None)

    def new_peer_id(self) -> int:
        """Draw an unused identifier from the overlay's identifier space.

        Raises :class:`InvalidConfigurationError` when every identifier is
        taken (tiny ``bits`` with too many peers), instead of rejection-sampling
        forever.  The check happens before any RNG draw, so seeded runs
        consume the same random stream as before the guard existed.
        """
        space = 1 << self.bits
        if len(self._peers) >= space or len(self.protocol) >= space:
            raise InvalidConfigurationError(
                f"identifier space of 2^{self.bits} points is exhausted by "
                f"{len(self._peers)} peers; increase 'bits'")
        while True:
            candidate = self.rng.randrange(space)
            if candidate not in self.protocol and candidate not in self._peers:
                return candidate

    def add_observer(self, observer: NetworkObserver) -> None:
        """Register a membership observer (e.g. the KTS service)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------ churn
    def join_peer(self, peer_id: Optional[int] = None) -> int:
        """Add a peer to the network, handing over the keys it now owns."""
        if peer_id is None:
            peer_id = self.new_peer_id()
        affected = self.protocol.add_node(peer_id, now=self.now)
        state = PeerState(peer_id=peer_id, joined_at=self.now)
        self._peers[peer_id] = state
        self.stats.joins += 1
        for previous_owner in affected:
            self._hand_over_entries(previous_owner, to_peer=peer_id)
        for observer in self._observers:
            observer.peer_joined(self, peer_id, set(affected))
        return peer_id

    def leave_peer(self, peer_id: int) -> None:
        """Remove a peer *normally*: its replicas are handed to the new owners.

        The replicas ship in ascending point order, as a join's do.
        """
        state = self.peer(peer_id)
        for observer in self._observers:
            observer.peer_leaving(self, peer_id)
        entries = sorted(state.store.values(), key=_BY_POINT)
        self.protocol.remove_node(peer_id, reason=DepartureReason.LEAVE, now=self.now)
        state.alive = False
        del self._peers[peer_id]
        self.stats.leaves += 1
        if self._peers:
            for entry in entries:
                self._ship(entry, self.protocol.responsible_for(entry.point))
        else:
            self.stats.lost_entries += len(entries)
        state.store.clear()
        self._departed_peers[peer_id] = state
        for observer in self._observers:
            observer.peer_left(self, peer_id)

    def fail_peer(self, peer_id: int) -> None:
        """Remove a peer *abruptly*: its replicas and counters are lost."""
        state = self.peer(peer_id)
        self.protocol.remove_node(peer_id, reason=DepartureReason.FAIL, now=self.now)
        state.alive = False
        del self._peers[peer_id]
        self.stats.failures += 1
        self.stats.lost_entries += len(state.store)
        state.store.clear()
        self._departed_peers[peer_id] = state
        for observer in self._observers:
            observer.peer_failed(self, peer_id)

    def _hand_over_entries(self, previous_owner: int, *, to_peer: int) -> None:
        """Move entries from ``previous_owner`` that now belong to ``to_peer``.

        On overlays with contiguous responsibility (Chord) the moving entries
        are those of the newcomer's claimed interval.  Otherwise (Kademlia,
        CAN) each entry of the previous owner's store is checked against the
        responsibility memo; a Kademlia join has already moved the memoised
        points it stole to the newcomer, so those checks hit.  Either way the
        entries ship in ascending point order, insertion order within a point.
        """
        if previous_owner not in self._peers or previous_owner == to_peer:
            return
        source = self._peers[previous_owner].store
        if not len(source):
            return
        span = self.protocol.claimed_span(to_peer)
        if span is not None:
            moving = source.entries_in_span(span[0], span[1])
        else:
            responsible_for = self.protocol.responsible_for
            moving = [entry for entry in source.values()
                      if responsible_for(entry.point) == to_peer]
            moving.sort(key=_BY_POINT)
        for entry in moving:
            source.delete(entry.hash_name, entry.key)
            self._ship(entry, to_peer)

    def _ship(self, entry: StoredValue, to_peer: int) -> None:
        """Hand ``entry`` to ``to_peer`` unless its copy there is as new (delta handover).

        The receiver's reconciliation would reject a same-or-newer copy's
        rival anyway, so only the skip counter observes the difference.
        """
        store = self._peers[to_peer].store
        existing = store.get(entry.hash_name, entry.key)
        if existing is not None and not entry.is_newer_than(existing):
            self.stats.handover_entries_skipped += 1
            return
        store.put(entry)
        self.stats.maintenance_messages += 1
        self.stats.handover_entries += 1

    # ------------------------------------------------------------------ lookup
    def responsible_peer(self, key: Any, hash_fn: PairwiseIndependentHash) -> int:
        """``rsp(k, h)``: the live peer responsible for ``key`` wrt ``hash_fn``."""
        return self.protocol.responsible_for(hash_fn(key))

    def lookup(self, key: Any, hash_fn: PairwiseIndependentHash, *,
               origin: Optional[int] = None,
               trace: Optional[TraceSummary] = None,
               exchange: Optional[Tuple[MessageKind, MessageKind]] = None
               ) -> LookupResult:
        """Locate ``rsp(k, h)`` from ``origin`` through the overlay's routing.

        Records one message per routing hop (plus retries around departed
        fingers) in ``trace`` when provided, then the ``exchange`` of
        ``(request, reply)`` kinds with the responsible when the caller names
        one.  An untraced lookup walks nothing (see :meth:`_locate`): its
        route only names the origin and the responsible.
        """
        origin = self._resolve_origin(origin)
        point = hash_fn(key)
        responsible, route = self._locate(origin, point, trace, exchange)
        if route is None:
            route = RouteResult((origin,) if origin == responsible
                                else (origin, responsible), responsible)
        return LookupResult(key=key, hash_name=hash_fn.name, point=point,
                            responsible=responsible, route=route)

    def locate(self, key: Any, hash_fn: PairwiseIndependentHash,
               exchange: Tuple[MessageKind, MessageKind], *, origin: Optional[int] = None,
               trace: Optional[TraceSummary] = None) -> int:
        """``rsp(k, h)``, routed and traced as :meth:`lookup` does, without its result."""
        return self._locate(self._resolve_origin(origin), hash_fn(key), trace, exchange)[0]

    def _resolve_origin(self, origin: Optional[int]) -> int:
        if origin is not None and origin in self._peers:
            return origin
        if not self._peers:
            raise EmptyNetworkError("the network has no live peers")
        # ``self.rng.choice(nodes)``, inline: ``Random._randbelow``'s draws.
        nodes = self.protocol.nodes()
        count = len(nodes)
        bits = count.bit_length()
        getrandbits = self.rng.getrandbits
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        return nodes[index]

    def _locate(self, origin: int, point: int, trace: Optional[TraceSummary],
                exchange: Optional[Tuple[MessageKind, MessageKind]] = None,
                unreachable: FrozenSet[int] = frozenset(), *,
                source: Optional[int] = None, entries: int = 1
                ) -> Tuple[int, Optional[RouteResult]]:
        """The one place an operation finds its responsible — and is traced.

        With a ``trace``, routes from ``origin`` to ``point`` (the route
        records its hops as it walks) and records the named ``exchange`` of
        ``(request, reply)`` kinds between ``source`` and the responsible,
        carrying ``entries`` items, in its sizes' memoised ``exchange_row`` —
        or a single timed-out request when the responsible is ``unreachable``.

        Returns the responsible and the route.  Without a trace the route is
        ``None`` and the responsible comes from the overlay's memoised map:
        no walk, so no routing-state upkeep (Kademlia lookups evict and learn
        contacts), and experiments that *measure* stale state must not mix
        untraced traffic into traced operations; the services always trace.
        """
        if trace is None:
            return self.protocol.responsible_for(point), None
        route = self.protocol.route(origin, point, now=self.now, trace=trace)
        responsible = route.responsible
        if exchange is not None:
            if responsible in unreachable:
                trace.record(exchange[0], dest=responsible, timed_out=True)
            else:
                trace.record_exchange(exchange, -1 if source is None else source,
                                      responsible, entries)
        return responsible, route

    # --------------------------------------------------------------------- put
    def put(self, key: Any, hash_fn: PairwiseIndependentHash, data: Any, *,
            timestamp: Any = None, version: Optional[int] = None,
            origin: Optional[int] = None, trace: Optional[TraceSummary] = None,
            unreachable: FrozenSet[int] = frozenset()) -> bool:
        """The paper's ``put_h(k, data)``: store a replica at ``rsp(k, h)``.

        Returns ``True`` when the responsible peer accepted (stored) the
        replica, ``False`` when it kept a newer one or was unreachable.
        ``unreachable`` injects the paper's motivating fault scenario — an
        update that cannot reach one of the replica holders.
        """
        origin = self._resolve_origin(origin)
        point = hash_fn(key)
        responsible, _ = self._locate(origin, point, trace, _PUT, unreachable)
        if responsible in unreachable:
            return False
        entry = StoredValue(key, data, timestamp, version, hash_fn.name, point)
        return self._peers[responsible].store.put(entry)

    # --------------------------------------------------------------------- get
    def get(self, key: Any, hash_fn: PairwiseIndependentHash, *,
            origin: Optional[int] = None, trace: Optional[TraceSummary] = None,
            unreachable: FrozenSet[int] = frozenset()) -> Optional[StoredValue]:
        """The paper's ``get_h(k)``: fetch the replica stored at ``rsp(k, h)``."""
        origin = self._resolve_origin(origin)
        responsible, _ = self._locate(origin, hash_fn(key), trace, _GET, unreachable)
        if responsible in unreachable:
            return None
        return self._peers[responsible].store.get(hash_fn.name, key)

    # ------------------------------------------------------------ batched ops
    def _batched_exchanges(self, points: Sequence[int], origin: int,
                           trace: Optional[TraceSummary],
                           unreachable: FrozenSet[int],
                           exchange: Tuple[MessageKind, MessageKind]):
        """Shared skeleton of the batched operations.

        Groups the request indices by the current responsible of their
        ``points``, routes once per distinct responsible, records the batched
        request/reply exchange (or a single timed-out request when the
        responsible is unreachable) and yields ``(responsible, indices)`` per
        reachable group.  The data-bearing message — the request for puts,
        the reply for gets — is sized per entry carried, so batching saves
        round-trips and routing hops, never under-accounted bytes.
        """
        grouped: Dict[int, List[int]] = {}
        for index, point in enumerate(points):
            grouped.setdefault(self.protocol.responsible_for(point), []).append(index)
        for responsible, indices in grouped.items():
            # Only to account: the grouping already knows the responsible.
            self._locate(origin, points[indices[0]], trace, exchange, unreachable,
                         source=origin, entries=len(indices))
            if responsible not in unreachable:
                yield responsible, indices

    def get_many(self, requests: Sequence[tuple], *,
                 origin: Optional[int] = None,
                 trace: Optional[TraceSummary] = None,
                 unreachable: FrozenSet[int] = frozenset()
                 ) -> List[Optional[StoredValue]]:
        """Batched ``get_h``: fetch several ``(key, hash_fn)`` replicas at once.

        Requests destined for the same responsible peer are coalesced: the
        origin routes *once* per distinct responsible and exchanges a single
        (larger) request/reply pair carrying every entry held there, instead
        of one lookup + request/reply per replica.  This is the message
        amortisation behind ``retrieve_many``.

        Returns one ``Optional[StoredValue]`` per request, in request order.
        """
        origin = self._resolve_origin(origin)
        results: List[Optional[StoredValue]] = [None] * len(requests)
        points = [hash_fn(key) for key, hash_fn in requests]
        for responsible, indices in self._batched_exchanges(
                points, origin, trace, unreachable, _GET):
            store = self._peers[responsible].store
            for index in indices:
                key, hash_fn = requests[index]
                results[index] = store.get(hash_fn.name, key)
        return results

    def put_many(self, requests: Sequence[tuple], *,
                 origin: Optional[int] = None,
                 trace: Optional[TraceSummary] = None,
                 unreachable: FrozenSet[int] = frozenset()) -> List[bool]:
        """Batched ``put_h``: store several replicas at once.

        Each request is ``(key, hash_fn, data, timestamp, version)``
        (``timestamp``/``version`` may be ``None``).  Writes destined for the
        same responsible peer share one routed request/ack exchange, the
        request's payload size scaling with the entries it carries.  Returns
        one acceptance flag per request, in request order.
        """
        origin = self._resolve_origin(origin)
        results: List[bool] = [False] * len(requests)
        points = [hash_fn(key) for key, hash_fn, _data, _timestamp, _version
                  in requests]
        for responsible, indices in self._batched_exchanges(
                points, origin, trace, unreachable, _PUT):
            for index in indices:
                key, hash_fn, data, timestamp, version = requests[index]
                entry = StoredValue(key, data, timestamp, version, hash_fn.name,
                                    points[index])
                results[index] = self._peers[responsible].store.put(entry)
        return results

    # -------------------------------------------------------------- delta sync
    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def sync_span(self, source: int, dest: int, lo: int, hi: int, *,
                  trace: Optional[TraceSummary] = None) -> SyncReport:
        """One pull-based delta-sync exchange over the span ``(lo, hi]``.

        The anti-entropy primitive behind replica reconciliation: ``dest``
        ships its compact timestamp summary of the span
        (:meth:`~repro.dht.storage.LocalStore.timestamp_summary`, one
        ``SYNC_SUMMARY`` message), and ``source`` replies with only the
        entries whose timestamp (or version) advanced past it
        (:meth:`~repro.dht.storage.LocalStore.entries_newer_than`, one
        ``SYNC_DELTA`` message).  The destination reconciles the delta with
        the ordinary newest-wins ``put``.  ``lo == hi`` syncs the whole
        identifier space.

        Draws no randomness and records messages only on the provided
        ``trace``, so seeded runs that never sync are bit-identical to
        earlier releases.
        """
        source_store = self.peer(source).store
        dest_store = self.peer(dest).store
        summary = dest_store.timestamp_summary(lo, hi)
        considered = source_store.entries_in_span(lo, hi)
        delta = source_store.entries_newer_than(lo, hi, summary)
        sizes = self.message_sizes
        summary_bytes = (sizes.control_bytes
                         + SYNC_SUMMARY_ENTRY_BYTES * len(summary))
        delta_bytes = sizes.control_bytes + sizes.data_bytes * len(delta)
        full_bytes = sizes.control_bytes + sizes.data_bytes * len(considered)
        if trace is not None:
            trace.record(MessageKind.SYNC_SUMMARY, source=dest, dest=source,
                         size_bytes=summary_bytes)
            trace.record(MessageKind.SYNC_DELTA, source=source, dest=dest,
                         size_bytes=delta_bytes)
        dest_store = self._peers[dest].store
        applied = sum(dest_store.put(entry) for entry in delta)
        self.stats.maintenance_messages += 2
        self.stats.sync_rounds += 1
        self.stats.sync_entries_shipped += len(delta)
        self.stats.handover_entries_skipped += len(considered) - len(delta)
        return SyncReport(source=source, dest=dest,
                          entries_considered=len(considered),
                          entries_shipped=len(delta), entries_applied=applied,
                          summary_entries=len(summary),
                          summary_bytes=summary_bytes, delta_bytes=delta_bytes,
                          full_bytes=full_bytes)

    # ----------------------------------------------------------------- storage
    def stored_replicas(self, key: Any,
                        hash_fns: Iterable[PairwiseIndependentHash]) -> List[StoredValue]:
        """All replicas of ``key`` currently held at their responsibles.

        Diagnostic helper used by tests and by the probability-of-currency
        estimator: for each hash function, look at the current responsible and
        return its replica if it holds one.
        """
        replicas: List[StoredValue] = []
        for hash_fn in hash_fns:
            responsible = self.responsible_peer(key, hash_fn)
            entry = self._peers[responsible].store.get(hash_fn.name, key)
            if entry is not None:
                replicas.append(entry)
        return replicas

    def new_trace(self) -> TraceSummary:
        """A fresh trace in the network's message sizes, carrying :attr:`on_message`."""
        sizes = self.message_sizes
        return TraceSummary(0, 0, 0, sizes.size_of(MessageKind.LOOKUP_RETRY), sizes,
                            self.on_message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DHTNetwork(protocol={type(self.protocol).__name__}, "
                f"peers={self.size}, now={self.now:.1f})")
