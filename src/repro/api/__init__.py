"""repro.api — the unified client API of the reproduction.

This package is the caller-facing surface that every layer above
:mod:`repro.dht` goes through:

* **shared result types** and per-retrieve **consistency levels**
  (:mod:`repro.api.results`) — one :class:`InsertResult`/:class:`RetrieveResult`
  pair for every algorithm, so UMS and the BRK baseline are comparable field
  by field;
* the :class:`CurrencyService` protocol and the name-keyed **service
  table** ``SERVICES`` (:mod:`repro.api.services`) — ``"ums"`` and ``"brk"``
  ship, an assignment adds more, mirroring the overlay table one layer up;
* the :class:`Cluster` builder and origin-bound :class:`Session` context
  managers (:mod:`repro.api.cluster`) — the single construction path used by
  the apps, the simulation harness, the experiment generators, the CLI, the
  examples and the benchmarks, including the batched
  ``insert_many``/``retrieve_many`` operations.

Quickstart
----------
>>> from repro.api import Cluster
>>> cluster = Cluster.build(peers=32, replicas=8, seed=7)
>>> with cluster.session() as session:
...     _ = session.insert("auction:42", {"high_bid": 100})
...     result = session.retrieve("auction:42")
>>> result.data, result.is_current
({'high_bid': 100}, True)

The submodules are loaded lazily (PEP 562) so that :mod:`repro.core` can
import the shared result types from :mod:`repro.api.results` without creating
an import cycle.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = [
    "BatchInsertResult",
    "BatchRetrieveResult",
    "Cluster",
    "Consistency",
    "CurrencyService",
    "InsertResult",
    "RetrieveResult",
    "SERVICES",
    "ServiceFactory",
    "Session",
    "create_service",
]

_EXPORTS = {
    "BatchInsertResult": "repro.api.results",
    "BatchRetrieveResult": "repro.api.results",
    "Consistency": "repro.api.results",
    "InsertResult": "repro.api.results",
    "RetrieveResult": "repro.api.results",
    "CurrencyService": "repro.api.services",
    "SERVICES": "repro.api.services",
    "ServiceFactory": "repro.api.services",
    "create_service": "repro.api.services",
    "Cluster": "repro.api.cluster",
    "Session": "repro.api.cluster",
}


def __getattr__(name: str) -> Any:
    """PEP 562 lazy loader for the re-exported API names."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> Tuple[str, ...]:
    return tuple(sorted(set(globals()) | set(__all__)))
