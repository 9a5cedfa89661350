"""repro.net — real-service mode: the socket transport behind Cluster/Session.

Everything below :mod:`repro.api` runs in-process against the simulation
substrate; this package is the step from *simulator* to *system serving
traffic*.  It keeps the exact client surface — the same
:class:`~repro.api.cluster.Session` drives either substrate — and swaps the
execution behind it:

* :mod:`repro.net.codec` — the length-prefixed wire codec, with measured
  frame sizes and a JSON view of any frame for humans (``describe``);
  :mod:`repro.net.wire` is the frame body: tagged values, native records
  for the results and traces, one-byte codes for the envelope and request
  keys, and every frame a piece of one deflate stream per connection and
  direction;
* :mod:`repro.net.server` — the asyncio node server hosting an overlay
  population + :class:`~repro.dht.storage.LocalStore` replicas + KTS/UMS
  handlers over TCP and Unix domain sockets; a connection is an
  :class:`asyncio.Protocol` that runs each request inline in arrival order
  (one loop turn per request), with backpressure on both sides (reading
  pauses at ``max_inflight`` waiting requests, execution pauses while the
  client leaves its replies unread) and graceful shutdown;
* :mod:`repro.net.client` — the client transport: pooled blocking sockets
  used in the caller's thread, request deadlines and bounded retries mapped
  onto the existing retry/timeout accounting (`LOOKUP_RETRY` trace messages
  + :class:`TransportCounters`).

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

from repro.net.client import (
    NetClient,
    RemoteCluster,
    RemoteService,
    RequestTimeout,
    TransportCounters,
    TransportError,
    connect,
)
from repro.net.server import FaultSchedule, NodeServer, ServerThread

__all__ = [
    "FaultSchedule",
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
