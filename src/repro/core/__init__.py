"""Core services: the paper's primary contribution (UMS, KTS) and the BRK baseline.

The caller-facing surface of the library lives one layer up, in
:mod:`repro.api`: ``Cluster.build(...)`` wires a network, a replication
scheme, KTS and a registered currency service together and hands out
``Session`` handles.  This module keeps the historical
:func:`build_service_stack` helper (now a thin wrapper over the cluster
builder) for callers that want direct access to the service objects:

>>> from repro.core import build_service_stack
>>> stack = build_service_stack(num_peers=32, num_replicas=8, seed=42)
>>> stack.ums.insert("meeting-room", {"slot": "09:00", "owner": "alice"})   # doctest: +ELLIPSIS
InsertResult(...)
>>> stack.ums.retrieve("meeting-room").is_current
True

``InsertResult``/``RetrieveResult`` are the shared result types of
:mod:`repro.api.results`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# reprolint: allow[REP005] reason=shared result types deliberately live in repro.api so sim and service stacks return identical objects (tests/api/test_shared_results.py)
from repro.api.results import Consistency, InsertResult, RetrieveResult
from repro.core.analysis import (
    expected_probes,
    expected_retrievals,
    expected_retrievals_upper_bound,
    geometric_probe_distribution,
    indirect_success_probability,
    replicas_needed_for_success,
    retrieval_bound,
)
from repro.core.audit import AuditReport, KeyAudit, ReplicaStatus, audit_key, audit_keys
from repro.core.baseline import BricksService
from repro.core.counters import KeyCounter, ValidCounterSet
from repro.core.errors import (
    IncomparableTimestampsError,
    NoReplicaFoundError,
    ReplicationConfigurationError,
    ServiceError,
)
from repro.core.kts import CounterInitialization, KeyBasedTimestampService, KtsStats
from repro.core.replication import ReplicationScheme
from repro.core.timestamps import Timestamp
from repro.core.ums import UpdateManagementService
from repro.dht.network import DHTNetwork

__all__ = [
    "AuditReport",
    "BricksService",
    "Consistency",
    "CounterInitialization",
    "IncomparableTimestampsError",
    "InsertResult",
    "KeyAudit",
    "KeyBasedTimestampService",
    "KeyCounter",
    "KtsStats",
    "ReplicaStatus",
    "NoReplicaFoundError",
    "ReplicationConfigurationError",
    "ReplicationScheme",
    "RetrieveResult",
    "ServiceError",
    "ServiceStack",
    "Timestamp",
    "UpdateManagementService",
    "ValidCounterSet",
    "audit_key",
    "audit_keys",
    "build_service_stack",
    "expected_probes",
    "expected_retrievals",
    "expected_retrievals_upper_bound",
    "geometric_probe_distribution",
    "indirect_success_probability",
    "replicas_needed_for_success",
    "retrieval_bound",
]


@dataclass
class ServiceStack:
    """A fully wired substrate: network + replication + KTS + UMS + BRK baseline.

    ``cluster`` is the :class:`repro.api.Cluster` that owns the wiring; use it
    to open :class:`repro.api.Session` handles or resolve further registered
    services.
    """

    network: DHTNetwork
    replication: ReplicationScheme
    kts: KeyBasedTimestampService
    ums: UpdateManagementService
    brk: BricksService
    cluster: object = field(default=None, repr=False)


def build_service_stack(num_peers: int = 64, *, num_replicas: int = 10,
                        protocol: str = "chord", bits: int = 32,
                        initialization: str = CounterInitialization.DIRECT,
                        probe_order: str = "random",
                        stabilization_interval: float = 30.0,
                        track_responsibility: bool = False,
                        seed: Optional[int] = None) -> ServiceStack:
    """Build a ready-to-use replicated DHT with UMS/KTS (and the BRK baseline).

    A thin wrapper over :meth:`repro.api.Cluster.build` (the single
    construction path of the client API) kept for direct access to the
    service objects.  Parameters mirror the paper's experimental knobs: the
    number of peers, the replication factor ``|Hr|``, the overlay protocol
    and the KTS counter initialisation mode.  A fixed ``seed`` makes the
    whole stack (hash functions, peer identifiers, probe order) reproducible
    — and reproduces the exact same stack as ``Cluster.build`` with the same
    seed.
    """
    # reprolint: allow[REP005] reason=lazy factory shim kept for backwards compatibility; delegates upward at call time only (tests/core/test_service_stack.py)
    from repro.api.cluster import Cluster

    cluster = Cluster.build(num_peers, protocol=protocol, service="ums",
                            replicas=num_replicas, bits=bits,
                            initialization=initialization,
                            probe_order=probe_order,
                            stabilization_interval=stabilization_interval,
                            track_responsibility=track_responsibility,
                            rng=random.Random(seed))
    return ServiceStack(network=cluster.network, replication=cluster.replication,
                        kts=cluster.kts, ums=cluster.service("ums"),
                        brk=cluster.service("brk"), cluster=cluster)
