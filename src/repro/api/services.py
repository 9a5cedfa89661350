"""The :class:`CurrencyService` protocol and the name-keyed service table.

The paper's point is that UMS turns a DHT into a *service*: currency-aware
``insert``/``retrieve`` over any overlay.  This module lifts the pluggable
pattern of :mod:`repro.dht.registry` one layer up: currency algorithms are
named in :data:`SERVICES` and resolved through one interface, so the harness,
the CLI, the apps and the benchmarks can swap ``"ums"`` for ``"brk"`` (or an
algorithm added at runtime) exactly the way they already swap overlays.

Two services ship:

* ``"ums"`` — the paper's Update Management Service (timestamps via KTS,
  certified-current retrieval, Figure 2);
* ``"brk"`` — the BRICKS baseline (version numbers, retrieve-all, Section 5).

Adding an algorithm is one assignment::

    from repro.api import SERVICES

    def build_quorum(*, network, replication, kts, rng, **extra):
        return QuorumService(network, replication, rng=rng, **extra)

    SERVICES["quorum"] = build_quorum

after which ``Cluster.build(..., service="quorum")``, the simulation harness
and the conformance suite all accept the new name.  A factory is a callable
taking keyword arguments ``network``, ``replication``, ``kts`` and ``rng``
(plus service-specific extras) and returning an object satisfying
:class:`CurrencyService`; factories are free to ignore ``kts`` when the
algorithm does not use timestamps (BRK does).

Every service in the table must return the **shared** result types of
:mod:`repro.api.results` and honour the :class:`~repro.api.results.Consistency`
levels, which is what makes costs comparable across algorithms.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.core.kts import KeyBasedTimestampService
    from repro.core.replication import ReplicationScheme
    from repro.dht.network import DHTNetwork

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.dht.registry import lookup

__all__ = ["CurrencyService", "SERVICES", "ServiceFactory", "create_service"]


@runtime_checkable
class CurrencyService(Protocol):
    """What every currency algorithm must provide.

    The operations mirror Section 3 of the paper: a timestamp- (or version-)
    stamped write to every replica, and a read honouring the requested
    :class:`~repro.api.results.Consistency` level.  The batched variants
    amortise lookups and replica probes across keys; implementations are
    expected to send measurably fewer messages than the equivalent per-key
    loop.
    """

    def insert(self, key: Any, data: Any, *, origin: Optional[int] = None,
               unreachable: FrozenSet[int] = frozenset()) -> InsertResult:
        """Write ``key`` to every replica holder."""
        ...

    def retrieve(self, key: Any, *, origin: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset(),
                 consistency: str = Consistency.CURRENT,
                 max_probes: Optional[int] = None) -> RetrieveResult:
        """Read ``key`` under the requested consistency level."""
        ...

    def insert_many(self, items: Sequence[Tuple[Any, Any]], *,
                    origin: Optional[int] = None,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Write several keys, amortising timestamping and replica writes."""
        ...

    def retrieve_many(self, keys: Sequence[Any], *, origin: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset(),
                      consistency: str = Consistency.CURRENT,
                      max_probes: Optional[int] = None) -> BatchRetrieveResult:
        """Read several keys, interleaving replica probes across them."""
        ...


#: Signature of a service factory: keyword-only ``network``, ``replication``,
#: ``kts`` and ``rng`` plus service-specific extras.
ServiceFactory = Callable[..., CurrencyService]


def create_service(name: str, *, network: "DHTNetwork",
                   replication: "ReplicationScheme",
                   kts: Optional["KeyBasedTimestampService"] = None,
                   seed: Optional[int] = None,
                   rng: Optional[random.Random] = None,
                   **extra: Any) -> CurrencyService:
    """Build the currency service named ``name`` in :data:`SERVICES`.

    ``network``, ``replication`` and ``kts`` are the substrate every caller
    (:class:`~repro.api.cluster.Cluster`, the harness, tests) provides;
    ``extra`` is forwarded verbatim for service-specific options (e.g. UMS's
    ``probe_order``).
    """
    factory = lookup(SERVICES, name, "service")
    if rng is None:
        rng = random.Random(seed)
    return factory(network=network, replication=replication, kts=kts, rng=rng,
                   **extra)


# --------------------------------------------------------- built-in services
def _build_ums(*, network: "DHTNetwork", replication: "ReplicationScheme",
               kts: Optional["KeyBasedTimestampService"],
               rng: random.Random, **extra: Any) -> CurrencyService:
    """Factory of the paper's UMS.

    ``extra`` forwards service-specific options verbatim: ``probe_order``
    (``"random"``/``"fixed"``) and ``detector`` (a
    :class:`repro.core.detector.CrossCheckDetector` instance that passively
    cross-checks ``last_ts`` claims against probed replica timestamps —
    the simulation harness threads one through
    ``Cluster.build(service_options={"ums": {"detector": ...}})``).
    """
    # Imported lazily: repro.core imports the shared result types from
    # repro.api, so the factory must not import repro.core at module level.
    from repro.core.ums import UpdateManagementService

    if kts is None:
        raise ValueError("the 'ums' service requires a KTS instance "
                         "(timestamps are its whole point)")
    return UpdateManagementService(network, kts, replication, rng=rng, **extra)


def _build_brk(*, network: "DHTNetwork", replication: "ReplicationScheme",
               kts: Optional["KeyBasedTimestampService"],
               rng: random.Random, **extra: Any) -> CurrencyService:
    from repro.core.baseline import BricksService

    # BRK has no timestamping service; ``kts`` is accepted and ignored.
    return BricksService(network, replication, rng=rng, **extra)


#: Service name -> factory, resolved by :func:`create_service`.
SERVICES: Dict[str, ServiceFactory] = {"ums": _build_ums, "brk": _build_brk}
