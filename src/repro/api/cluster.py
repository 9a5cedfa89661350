"""The :class:`Cluster` builder and origin-bound :class:`Session` handles.

``Cluster.build`` is the one construction path of the client API: it owns the
wiring that every caller used to hand-assemble (``DHTNetwork`` + replication
scheme + KTS + currency service) and resolves both the overlay *and* the
algorithm through their name tables::

    from repro.api import Cluster, Consistency

    cluster = Cluster.build(peers=64, protocol="kademlia", service="ums",
                            replicas=10, seed=2007)
    with cluster.session() as session:
        session.insert("meeting-room", {"slot": "09:00"})
        result = session.retrieve("meeting-room")
        assert result.is_current

    # The service objects themselves, sharing the cluster's substrate:
    ums, brk = cluster.service("ums"), cluster.service("brk")
    assert ums.retrieve("meeting-room").is_current
    assert brk.network is cluster.network

Sessions are the operation handles: they bind an origin peer (or float on a
random live peer per operation), default a consistency level, expose the
batched ``insert_many``/``retrieve_many`` operations, and keep running
message/operation tallies so applications can account for their own traffic.

``Cluster.build`` draws its random stream in a fixed order (network, hash
family, KTS, then one seed per built-in service): the experiment digests
pinned in ``tests/experiments`` and the committed benchmark tables depend on
it, so a new draw goes after the existing ones, never between them.
"""

from __future__ import annotations

import random
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Type,
    cast,
)

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.api.services import SERVICES, CurrencyService, create_service
from repro.dht.messages import TraceSummary
from repro.dht.registry import lookup

if TYPE_CHECKING:
    from repro.core.kts import KeyBasedTimestampService
    from repro.core.replication import ReplicationScheme
    from repro.core.ums import UpdateManagementService
    from repro.dht.network import DHTNetwork

__all__ = ["Cluster", "Session"]


class Session:
    """An operation handle bound to a cluster, a service and (optionally) an origin.

    Parameters
    ----------
    cluster:
        The cluster the session operates on.
    service:
        The resolved currency service instance.
    origin:
        The peer all operations originate from.  ``None`` (the default for
        harness-style workloads) floats the session: every operation starts
        at a fresh uniformly random live peer, matching the paper's query
        model.  When the bound origin departs the network, routing falls back
        to a random live peer automatically.
    consistency:
        The default consistency level for retrievals (overridable per call).

    Sessions are context managers; operations on a closed session raise
    :class:`RuntimeError`.  They also tally their traffic: ``operations`` and
    ``messages_sent`` accumulate across calls.
    """

    def __init__(self, cluster: "Cluster", service: CurrencyService, *,
                 origin: Optional[int] = None,
                 consistency: str = Consistency.CURRENT) -> None:
        Consistency.validate(consistency)
        self.cluster = cluster
        self.service = service
        self.origin = origin
        self.consistency = consistency
        self.operations = 0
        self.messages_sent = 0
        self._closed = False

    # ----------------------------------------------------------- lifecycle
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()

    def close(self) -> None:
        """Close the session; further operations raise :class:`RuntimeError`."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this session."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("operation on a closed Session")

    def _account(self, trace: TraceSummary) -> None:
        self.operations += 1
        self.messages_sent += trace.message_count

    # ---------------------------------------------------------- operations
    def insert(self, key: Any, data: Any, *,
               unreachable: FrozenSet[int] = frozenset()) -> InsertResult:
        """Insert (or update) ``key`` with ``data``."""
        self._check_open()
        result = self.service.insert(key, data, origin=self.origin,
                                     unreachable=unreachable)
        self._account(result.trace)
        return result

    def retrieve(self, key: Any, *, consistency: Optional[str] = None,
                 max_probes: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset()) -> RetrieveResult:
        """Retrieve ``key`` under the session's (or an explicit) consistency level."""
        self._check_open()
        level = self.consistency if consistency is None else consistency
        result = self.service.retrieve(key, origin=self.origin,
                                       unreachable=unreachable,
                                       consistency=level, max_probes=max_probes)
        self._account(result.trace)
        return result

    def insert_many(self, items: Iterable[Tuple[Any, Any]], *,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Insert several ``(key, data)`` pairs, amortising timestamping and writes."""
        self._check_open()
        result = self.service.insert_many(list(items), origin=self.origin,
                                          unreachable=unreachable)
        self._account(result.trace)
        return result

    def retrieve_many(self, keys: Sequence[Any], *,
                      consistency: Optional[str] = None,
                      max_probes: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset()) -> BatchRetrieveResult:
        """Retrieve several keys at once, interleaving replica probes across them."""
        self._check_open()
        level = self.consistency if consistency is None else consistency
        result = self.service.retrieve_many(list(keys), origin=self.origin,
                                            unreachable=unreachable,
                                            consistency=level,
                                            max_probes=max_probes)
        self._account(result.trace)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        origin = "floating" if self.origin is None else f"peer {self.origin}"
        return (f"Session(service={type(self.service).__name__}, origin={origin}, "
                f"consistency={self.consistency!r}, "
                f"ops={self.operations}, closed={self._closed})")


class Cluster:
    """A fully wired replicated-DHT cluster handing out :class:`Session` handles.

    Build one with :meth:`Cluster.build`; the constructor is internal wiring.
    The cluster resolves currency services by name through
    :mod:`repro.api.services` and caches one instance per name, all sharing
    the same network, replication scheme and KTS, so ``cluster.service("ums")``
    and ``cluster.service("brk")`` face identical replica placement — exactly
    what the paper's comparison requires.
    """

    def __init__(self, *, network: "DHTNetwork",
                 replication: "ReplicationScheme",
                 kts: Optional["KeyBasedTimestampService"], service_name: str,
                 service_seeds: Dict[str, int],
                 service_options: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self.network = network
        self.replication = replication
        self.kts = kts
        self.service_name = service_name.lower()
        self._service_seeds = dict(service_seeds)
        self._service_options = dict(service_options or {})
        self._services: Dict[str, CurrencyService] = {}
        self._extra_seed_rng: Optional[random.Random] = None

    # ------------------------------------------------------------- building
    @classmethod
    def build(cls, peers: int = 64, *, protocol: str = "chord",
              service: str = "ums", replicas: int = 10, bits: int = 32,
              initialization: Optional[str] = None,
              probe_order: str = "random",
              stabilization_interval: float = 30.0,
              seed: Optional[int] = None,
              rng: Optional[random.Random] = None,
              service_options: Optional[Dict[str, Dict[str, Any]]] = None
              ) -> "Cluster":
        """Build a cluster: network + replication + KTS + registered services.

        Parameters mirror the paper's experimental knobs: the population, the
        overlay ``protocol`` (resolved via :mod:`repro.dht.registry`), the
        primary ``service`` (resolved via :mod:`repro.api.services`), the
        replication factor ``|Hr|``, and the KTS counter ``initialization``
        mode.  A fixed ``seed`` makes the whole stack reproducible; passing an
        ``rng`` instead lets a caller (the simulation harness) share one
        master random stream.  ``service_options`` maps service names to extra
        factory keyword arguments.
        """
        # Imported here (not at module level) to keep repro.api importable
        # from within repro.core without a circular import.
        from repro.core.kts import CounterInitialization, KeyBasedTimestampService
        from repro.core.replication import ReplicationScheme
        from repro.dht.hashing import HashFamily
        from repro.dht.network import DHTNetwork

        if rng is not None and seed is not None:
            raise ValueError("pass either 'seed' or 'rng', not both")
        if probe_order not in ("random", "fixed"):
            raise ValueError(f"probe_order must be 'random' or 'fixed', "
                             f"got {probe_order!r}")
        lookup(SERVICES, service.lower(), "service")
        if initialization is None:
            initialization = CounterInitialization.DIRECT
        options = dict(service_options or {})
        if probe_order != "random":
            ums_options = dict(options.get("ums", {}))
            if ums_options.get("probe_order", probe_order) != probe_order:
                raise ValueError(f"probe_order={probe_order!r} conflicts with "
                                 f"service_options['ums']['probe_order']="
                                 f"{ums_options['probe_order']!r}")
            ums_options["probe_order"] = probe_order
            options["ums"] = ums_options
        master = rng if rng is not None else random.Random(seed)

        # The draw order is fixed (see the module docstring): network, hash
        # family, KTS, UMS seed, BRK seed.
        network = DHTNetwork.build(peers, protocol=protocol, bits=bits,
                                   stabilization_interval=stabilization_interval,
                                   seed=master.getrandbits(64))
        family = HashFamily(bits=bits, seed=master.getrandbits(64))
        replication = ReplicationScheme(family.sample_many(replicas, prefix="hr"))
        kts = KeyBasedTimestampService(network, replication,
                                       ts_hash=family.sample("h-ts"),
                                       initialization=initialization,
                                       seed=master.getrandbits(64))
        service_seeds = {"ums": master.getrandbits(64),
                        "brk": master.getrandbits(64)}
        return cls(network=network, replication=replication, kts=kts,
                   service_name=service, service_seeds=service_seeds,
                   service_options=options)

    # ------------------------------------------------------------- services
    def service(self, name: Optional[str] = None) -> CurrencyService:
        """The currency service registered under ``name`` (default: the primary).

        Instances are cached: repeated calls return the same object, and all
        services share the cluster's network, replication scheme and KTS.
        """
        key = (self.service_name if name is None else name).lower()
        instance = self._services.get(key)
        if instance is None:
            instance = create_service(
                key, network=self.network, replication=self.replication,
                kts=self.kts, seed=self._service_seed(key),
                **self._service_options.get(key, {}))
            self._services[key] = instance
        return instance

    def _service_seed(self, name: str) -> int:
        seed = self._service_seeds.get(name)
        if seed is None:
            # Runtime-registered services draw from a dedicated stream so they
            # never perturb the reproducibility of the built-in ones.
            if self._extra_seed_rng is None:
                base = self._service_seeds.get("brk", 0)
                self._extra_seed_rng = random.Random(base ^ 0x9E3779B97F4A7C15)
            seed = self._extra_seed_rng.getrandbits(64)
            self._service_seeds[name] = seed
        return seed

    # ------------------------------------------------------------- sessions
    def session(self, origin: Optional[int] = None, *,
                service: Optional[str] = None,
                consistency: str = Consistency.CURRENT) -> Session:
        """Open a session: the operation handle applications work through.

        ``origin`` binds every operation to one peer (pass a peer id) or
        floats the session on random live peers (the default).  ``service``
        selects a non-primary algorithm for this session only.
        """
        if origin is not None and not self.network.is_alive(origin):
            raise ValueError(f"origin peer {origin} is not a live member "
                             "of the cluster")
        return Session(self, self.service(service), origin=origin,
                       consistency=consistency)

    # ----------------------------------------------------------- maintenance
    def sync_replicas(self, keys: Optional[Sequence[Any]] = None) -> Any:
        """Run one delta anti-entropy round over ``keys`` (default: all keys).

        Delegates to :meth:`repro.core.replication.ReplicationScheme.sync_replicas`
        and returns its :class:`~repro.core.replication.ReplicaSyncReport` —
        replicas diverged by churn or failures converge to the newest copy,
        shipping only the entries whose timestamp/version advanced.
        """
        return self.replication.sync_replicas(self.network, keys)

    # ----------------------------------------------------------- diagnostics
    def currency_probability(self, key: Any) -> float:
        """Empirical probability of currency and availability ``p_t`` for ``key``."""
        ums = cast("UpdateManagementService", self.service("ums"))
        return ums.currency_probability(key)

    @property
    def size(self) -> int:
        """Number of live peers."""
        return self.network.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Cluster(protocol={type(self.network.protocol).__name__}, "
                f"peers={self.network.size}, service={self.service_name!r}, "
                f"replicas={self.replication.factor})")
