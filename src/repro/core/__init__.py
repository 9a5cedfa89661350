"""Core services: the paper's primary contribution (UMS, KTS) and the BRK baseline.

The caller-facing surface of the library lives one layer up, in
:mod:`repro.api`: ``Cluster.build(...)`` wires a network, a replication
scheme, KTS and the registered currency services together, and
``cluster.service("ums")`` hands out the service objects defined here.
``InsertResult``/``RetrieveResult`` are the shared result types of
:mod:`repro.api.results`.
"""

from __future__ import annotations

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
from repro.core.audit import KeyAudit, ReplicaStatus, audit_key
from repro.core.baseline import BricksService
from repro.core.counters import KeyCounter, ValidCounterSet
from repro.core.errors import (
    IncomparableTimestampsError,
    ReplicationConfigurationError,
    ServiceError,
)
from repro.core.kts import CounterInitialization, KeyBasedTimestampService, KtsStats
from repro.core.replication import ReplicationScheme
from repro.core.timestamps import Timestamp
from repro.core.ums import UpdateManagementService

__all__ = [
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
    "ReplicationConfigurationError",
    "ReplicationScheme",
    "RetrieveResult",
    "ServiceError",
    "Timestamp",
    "UpdateManagementService",
    "ValidCounterSet",
    "audit_key",
    "expected_probes",
    "expected_retrievals",
    "expected_retrievals_upper_bound",
    "geometric_probe_distribution",
    "indirect_success_probability",
    "replicas_needed_for_success",
    "retrieval_bound",
]

