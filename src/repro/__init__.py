"""repro — a reproduction of *Data Currency in Replicated DHTs* (SIGMOD 2007).

The package provides:

* the **unified client API** — ``Cluster.build(...)`` + ``Session`` handles,
  shared result types, per-retrieve consistency levels and the name-keyed
  currency-service table — in :mod:`repro.api`;
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
* the experiment table (every figure and ablation as a declared sweep, run
  as one plan) in :mod:`repro.experiments`;
* the unified execution layer — serialisable :class:`~repro.execution.RunPlan`
  grids, the parallel :class:`~repro.execution.Executor` and the on-disk run
  cache — in :mod:`repro.execution`;
* **real-service mode** — the length-prefixed wire codec, the asyncio node
  server (``repro serve``) and the pooled client transport with bounded
  retries (``connect``, handing out the same ``Session``) — in
  :mod:`repro.net`.

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

from __future__ import annotations

from typing import Any, Tuple

from repro.api.cluster import Cluster, Session
from repro.api.results import Consistency, InsertResult, RetrieveResult
from repro.api.services import SERVICES, CurrencyService
from repro.core import (
    BricksService,
    CounterInitialization,
    KeyBasedTimestampService,
    ReplicationScheme,
    Timestamp,
    UpdateManagementService,
)
from repro.dht import CanSpace, ChordRing, DHTNetwork, HashFamily

__version__ = "26.0.0"

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
    "SERVICES",
    "Session",
    "Simulator",
    "Timestamp",
    "UpdateManagementService",
    "__version__",
]

#: The exports a process that builds or reaches a cluster does not load
#: anyway, imported on first use (PEP 562): a client or a server never loads
#: the simulation engine or the executor's ``multiprocessing``.
_EXPORTS = {"Executor": "repro.execution", "RunPlan": "repro.execution",
            "NetworkCostModel": "repro.simulation.cost",
            "Simulator": "repro.simulation.engine"}


def __getattr__(name: str) -> Any:
    """PEP 562 lazy loader for the re-exported names."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> Tuple[str, ...]:
    return tuple(sorted(set(globals()) | set(__all__)))
