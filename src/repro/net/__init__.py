"""repro.net — real-service mode: the socket transport behind Cluster/Session.

Everything below :mod:`repro.api` runs in-process against the simulation
substrate; this package is the step from *simulator* to *system serving
traffic*.  It keeps the exact client surface — the same
:class:`~repro.api.cluster.Session` drives either substrate — and swaps the
execution behind it:

* :mod:`repro.net.codec` — the length-prefixed wire codec (JSON or binary
  bodies) for the existing trace/result types, with measured frame sizes;
  :mod:`repro.net.wire` is the binary body: tagged values, native records
  for the results and traces, one-byte codes for the protocol's dict keys,
  and every frame a piece of one deflate stream per connection and
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
  + :class:`TransportCounters`);
* :mod:`repro.net.backends` — the name-keyed backend registry (``sim`` /
  ``tcp`` / ``uds``) that makes the substrate a configuration choice;
* :mod:`repro.net.loadgen` — the load harness: scenario arrival models
  pacing an open-loop workload, reporting throughput and p50/p95/p99
  latency percentiles as spec-named bench JSON.

Quickstart (one process serving, another loading)::

    # terminal 1
    python -m repro serve --port 9207 --peers 200 --seed 2007

    # terminal 2
    python -m repro loadgen --backend tcp --address 127.0.0.1:9207 \\
        --arrival poisson --ops 500 --duration 5
"""

from repro.net.backends import backend_names, build_backend, register_backend
from repro.net.client import (
    NetClient,
    RemoteCluster,
    RemoteService,
    RequestTimeout,
    TransportCounters,
    TransportError,
    connect,
)
from repro.net.loadgen import LoadReport, LoadSpec, run_load
from repro.net.server import FaultSchedule, NodeServer, ServerThread

__all__ = [
    "FaultSchedule",
    "LoadReport",
    "LoadSpec",
    "NetClient",
    "NodeServer",
    "RemoteCluster",
    "RemoteService",
    "RequestTimeout",
    "ServerThread",
    "TransportCounters",
    "TransportError",
    "backend_names",
    "build_backend",
    "connect",
    "register_backend",
    "run_load",
]
