"""repro — a reproduction of *Data Currency in Replicated DHTs* (SIGMOD 2007).

The package provides:

* the **unified client API** — ``Cluster.build(...)`` + ``Session`` handles,
  shared result types, per-retrieve consistency levels and the name-keyed
  currency-service registry — in :mod:`repro.api`;
* a simulated DHT substrate (Chord, CAN and Kademlia overlays, replica storage, churn,
  message accounting) in :mod:`repro.dht`;
* a discrete-event simulation engine and network cost models in
  :mod:`repro.simulation` (``engine`` / ``cost`` / ``metrics`` / ``processes``);
* the paper's contribution — the Update Management Service (UMS) and the
  Key-based Timestamping Service (KTS) — plus the BRICKS baseline (BRK) in
  :mod:`repro.core`;
* the end-to-end simulation harness reproducing the paper's evaluation
  (Table 1 parameters, churn/update/query workloads) in :mod:`repro.simulation`,
  plus the declarative scenario engine (skewed/bursty workloads, correlated
  fault profiles, record/replay) in :mod:`repro.simulation.scenarios`;
* per-figure experiment generators in :mod:`repro.experiments`;
* the unified execution layer — serialisable :class:`~repro.execution.RunPlan`
  grids, the parallel :class:`~repro.execution.Executor` and the on-disk run
  cache — in :mod:`repro.execution`;
* **real-service mode** — the length-prefixed wire codec, the asyncio node
  server (``repro serve``), the pooled client transport with bounded retries,
  the ``sim``/``tcp``/``uds`` backend registry and the latency-percentile
  load harness (``repro loadgen``) — in :mod:`repro.net`;
* example applications (agenda, auction, reservation management) in
  :mod:`repro.apps`.

Quickstart
----------
>>> from repro import Cluster
>>> cluster = Cluster.build(peers=32, replicas=8, seed=7)
>>> with cluster.session() as session:
...     _ = session.insert("auction:42", {"high_bid": 100})
...     result = session.retrieve("auction:42")
>>> result.data, result.is_current
({'high_bid': 100}, True)
"""

from repro.api.cluster import Cluster, Session
from repro.api.results import Consistency, InsertResult, RetrieveResult
from repro.api.services import CurrencyService, register_service, service_names
from repro.core import (
    BricksService,
    CounterInitialization,
    KeyBasedTimestampService,
    ReplicationScheme,
    ServiceStack,
    Timestamp,
    UpdateManagementService,
    build_service_stack,
)
from repro.dht import CanSpace, ChordRing, DHTNetwork, HashFamily
from repro.execution import Executor, RunPlan
from repro.simulation.cost import NetworkCostModel
from repro.simulation.engine import Simulator

__version__ = "1.12.0"

__all__ = [
    "BricksService",
    "CanSpace",
    "ChordRing",
    "Cluster",
    "Consistency",
    "CounterInitialization",
    "CurrencyService",
    "DHTNetwork",
    "Executor",
    "HashFamily",
    "InsertResult",
    "KeyBasedTimestampService",
    "NetworkCostModel",
    "ReplicationScheme",
    "RetrieveResult",
    "RunPlan",
    "ServiceStack",
    "Session",
    "Simulator",
    "Timestamp",
    "UpdateManagementService",
    "__version__",
    "build_service_stack",
    "register_service",
    "service_names",
]
