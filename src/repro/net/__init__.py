"""repro.net — real-service mode: the socket transport behind Cluster/Session.

Everything below :mod:`repro.api` runs in-process against the simulation
substrate; this package is the step from *simulator* to *system serving
traffic*.  It keeps the exact client surface — the same
:class:`~repro.api.cluster.Session` drives either substrate — and swaps the
execution behind it:

* :mod:`repro.net.codec` — the length-prefixed wire codec, with measured
  frame sizes and a JSON view of any frame for humans (``describe``);
  :mod:`repro.net.wire` is the frame body: each request and reply as a
  record (op code, presence flags and varint id; answer or error), native
  records for the results (each trace as its summary), tagged values for
  the rest, every integer a LEB128 varint, and every frame a piece of one
  deflate stream per connection and direction;
* :mod:`repro.net.server` — the asyncio node server hosting an overlay
  population + :class:`~repro.dht.storage.LocalStore` replicas + KTS/UMS
  handlers over TCP and Unix domain sockets; a connection is an
  :class:`asyncio.Protocol` that runs each request inline in arrival order
  (one loop turn per request), with backpressure on both sides (reading
  pauses at ``max_inflight`` waiting requests, execution pauses while the
  client leaves its replies unread) and graceful shutdown;
* :mod:`repro.net.client` — the client transport: a retry policy over
  pooled links (blocking sockets, used in the caller's thread), request
  deadlines and bounded retries mapped onto the existing retry/timeout
  accounting (`LOOKUP_RETRY` trace messages + :class:`TransportCounters`).

:func:`connect` (a :class:`RemoteCluster`) and
:meth:`repro.api.cluster.Cluster.build` are the two constructors; both hand
out the same ``Session``.  Quickstart (one process serving, another
driving a session)::

    # terminal 1
    python -m repro serve --port 9207 --peers 200 --seed 2007

    # terminal 2
    from repro.net import connect
    with connect(("127.0.0.1", 9207)) as cluster, cluster.session() as session:
        session.insert("k", {"v": 1})
        print(session.retrieve("k").data)
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = [
    "NetClient",
    "NodeServer",
    "RemoteCluster",
    "RemoteService",
    "RequestTimeout",
    "ServerThread",
    "TransportCounters",
    "TransportError",
    "connect",
]

#: Where each exported name lives; it is imported on first use (PEP 562), so
#: a client process never loads the server's ``asyncio``.
_EXPORTS = {name: module for module, names in (
    ("repro.net.client", ("NetClient", "RemoteCluster", "RemoteService",
                          "RequestTimeout", "TransportCounters",
                          "TransportError", "connect")),
    ("repro.net.server", ("NodeServer", "ServerThread")),
) for name in names}


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
