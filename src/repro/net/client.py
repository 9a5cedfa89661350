"""Client transport: connection pool, timeouts and bounded retries.

:func:`connect` opens a :class:`RemoteCluster` against a running
:class:`~repro.net.server.NodeServer`, and hands out the **same**
:class:`~repro.api.cluster.Session` handles the simulation backend does —
the session's service is a :class:`RemoteService` satisfying the
:class:`~repro.api.services.CurrencyService` protocol, so every caller written
against ``Cluster``/``Session`` (apps, the benchmark, tests) drives real
sockets without changing a line.

The transport internals:

* the client sends through a **link**, any object with a deflate ``stream``
  for what it sends, ``request(frame, timeout_s, keys)`` returning the reply
  payload and its wire bytes (raising ``TimeoutError`` once ``timeout_s``
  passed without one) and ``close()``.  :class:`NetClient` is the policy over
  it — attempts, retries, timeouts, the pool and the counters — and never
  reads a clock; which link it uses is decided by the opener it is built
  with.  :func:`connect` passes a socket opener, and the socket link is the
  only production one (a test may pass an in-memory link on a simulated
  clock);
* every caller is synchronous, so the socket link is too: a request is one
  ``sendall`` and a ``recv`` loop on a blocking socket (``TCP_NODELAY``), run
  in the caller's own thread — no event loop, no helper thread, no hand-over;
* a thread-safe **connection pool** of ``pool_size`` slots, each opened
  lazily and reused, amortises connection setup across requests and bounds
  the open connections however many threads share the client;
* every request carries a **timeout** that bounds the whole attempt, however
  many ``recv`` calls the reply arrives in; a timed-out connection is torn
  down (its reply can no longer be matched) and the request is retried on a
  fresh connection, up to ``max_retries`` times, after which
  :class:`RequestTimeout` surfaces to the caller;
* a connection's frames are one deflate stream per direction
  (:class:`~repro.net.wire.DeflateStream` out, the
  :class:`~repro.net.codec.FrameDecoder` in), so a request is encoded per
  attempt, on the connection that sends it: a retry on a fresh link starts
  fresh streams, and ``bytes_sent`` adds up the frames actually sent;
* the request dict (``id``, ``op`` and the op's fields) travels as a
  request record and its reply as an answer or error record
  (:mod:`repro.net.wire`); a reply's result records leave out the keys the
  request named, so its frame is decoded with the request's
  :func:`~repro.net.codec.request_keys`.

Retries map onto the existing accounting: a remote result's trace is the
:class:`~repro.dht.messages.TraceSummary` the server recorded, and each
timeout-retry adds one timed-out ``LOOKUP_RETRY`` message to it with the
call the overlays make for their routing retries
(``record_route((), retries=r, timeouts=r)``, priced at the summary's
``retry_bytes``) — and is tallied in :class:`TransportCounters`.  Note the
at-least-once consequence: a dropped *reply* does not undo the executed
request, so a retried insert simply stamps a newer timestamp (newest-wins
makes inserts idempotent in effect).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from repro.api.cluster import Session
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.replication import ReplicaSyncReport
from repro.net import codec

__all__ = ["NetClient", "RemoteCluster", "RemoteService", "RequestStats",
           "RequestTimeout", "TransportCounters", "TransportError", "connect"]

#: An address: ``(host, port)`` for TCP, or a filesystem path for UDS.
Address = Union[Tuple[str, int], str]


class TransportError(RuntimeError):
    """The transport failed (connection refused, protocol violation, ...)."""


class RequestTimeout(TransportError):
    """A request exhausted its bounded retries without receiving a reply."""


@dataclass
class TransportCounters:
    """Running transport tallies of one client (mirrors the trace accounting).

    ``timeouts`` counts requests that waited out their timeout, ``retries``
    the re-sends those timeouts triggered (a timeout on the final permitted
    attempt raises instead of retrying, so ``retries <= timeouts``);
    ``reconnects`` counts connections torn down for replacement (the slot is
    re-opened by the next request that needs it), and the byte counters the
    measured frame sizes on the wire.
    """

    requests: int = 0
    retries: int = 0
    timeouts: int = 0
    reconnects: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    # reprolint: allow[REP008] reason=bench/backends.py reads the client counters through it; ROADMAP item 1
    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and bench JSON)."""
        return asdict(self)


@dataclass
class RequestStats:
    """Per-request transport accounting returned alongside each reply."""

    attempts: int = 1
    retries: int = 0
    timeouts: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class _Connection:
    """The socket link: a blocking socket, the deflate stream of what it
    sends and the frame decoder of what it receives."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.stream = codec.DeflateStream()
        self.decoder = codec.FrameDecoder()

    def request(self, frame: bytes, timeout_s: float,
                keys: Optional[Sequence[Any]]) -> Tuple[Dict[str, Any], int]:
        """Send one encoded frame; return the reply payload and its wire bytes.

        ``keys`` are the keys the request named (its reply leaves them out).

        ``timeout_s`` bounds the whole exchange: the deadline is carried
        across ``recv`` calls, so a reply dribbling in cannot stretch the
        attempt (``TimeoutError`` is raised once the deadline passes).
        The byte count is *measured* (bytes read off the socket for this
        reply, header included), not recomputed from the payload.
        """
        # reprolint: allow[REP001] reason=the socket link's request deadline is wall-clock by definition and never reaches a result or a trace; its semantics are pinned by tests/net/test_client_transport.py
        deadline = time.monotonic() + timeout_s
        received = 0
        try:
            self.sock.settimeout(timeout_s)
            self.sock.sendall(frame)
            while True:
                chunk = self.sock.recv(64 * 1024)
                if not chunk:
                    raise TransportError("server closed the connection")
                received += len(chunk)
                frames = self.decoder.feed(chunk, keys=keys)
                if frames:
                    break
                # reprolint: allow[REP001] reason=remaining share of the socket link's wall-clock request deadline (tests/net/test_client_transport.py)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("request deadline passed")
                self.sock.settimeout(remaining)
        except TimeoutError:
            raise
        except (OSError, codec.CodecError) as error:
            raise TransportError(f"connection failed: {error}") from error
        if len(frames) != 1 or self.decoder.pending_bytes:
            raise TransportError(
                f"expected one reply frame, got {len(frames)} and "
                f"{self.decoder.pending_bytes} stray bytes")
        return frames[0], received

    def close(self) -> None:
        """Tear the connection down (a timed-out link cannot be reused)."""
        self.sock.close()


def _open_socket(address: Address, timeout_s: float) -> _Connection:
    """Open a socket link to ``address``: ``(host, port)`` or a UDS path."""
    try:
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout_s)
                sock.connect(address)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection(address, timeout=timeout_s)
            # One small frame per direction per request: Nagle would only
            # ever delay it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError as error:
        raise TransportError(f"cannot connect to {address!r}: {error}") from error
    return _Connection(sock)


class NetClient:
    """Synchronous, thread-safe request policy over a pool of links.

    Parameters
    ----------
    open_link:
        Opens one link (see the module docstring); :func:`connect` passes
        one that opens a socket to the server's address.
    pool_size:
        Upper bound on open connections (each slot is opened lazily); a
        thread that finds every slot in use waits for one to come back.
    timeout_s:
        Per-attempt reply timeout.
    max_retries:
        How many times a timed-out request is re-sent before
        :class:`RequestTimeout` is raised (total attempts =
        ``max_retries + 1``).
    """

    def __init__(self, open_link: Callable[[], Any], *, pool_size: int = 2,
                 timeout_s: float = 5.0, max_retries: int = 2) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.open_link = open_link
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.counters = TransportCounters()
        self._next_id = 0
        self._closed = False
        # Guards the ids, the counters and the pool (re-entrant, so holders
        # may call ``_release``): ``_idle`` holds the open connections nobody
        # is using, ``_leased`` counts the slots handed out, and
        # ``len(_idle) + _leased`` never exceeds ``pool_size``.
        self._slot_free = threading.Condition()
        self._idle: List[Any] = []
        self._leased = 0

    # ---------------------------------------------------------------- pool
    def _acquire(self) -> Any:
        """Lease a slot: an idle connection, or a new one opened in it."""
        with self._slot_free:
            while True:
                if self._closed:
                    raise TransportError("client is closed")
                if self._idle:
                    self._leased += 1
                    return self._idle.pop()
                if self._leased < self.pool_size:
                    self._leased += 1
                    break
                self._slot_free.wait()
        try:
            return self.open_link()
        except TransportError:
            self._release(None)
            raise

    def _release(self, connection: Optional[Any], *,
                 reuse: bool = True) -> None:
        """Give a slot back (``None``: it never opened), pooling or closing it.

        ``reuse=False`` tears the connection down: a link that timed out or
        failed may still deliver half a reply, so its slot is re-opened by
        the next request that needs it.
        """
        with self._slot_free:
            self._leased -= 1
            if connection is not None:
                if reuse and not self._closed:
                    self._idle.append(connection)
                else:
                    connection.close()
                if not reuse:
                    self.counters.reconnects += 1
            self._slot_free.notify()

    # ------------------------------------------------------------- requests
    def request(self, op: str, **params: Any) -> Tuple[Any, RequestStats]:
        """Issue one request; returns ``(result, per-request stats)``.

        Raises :class:`RequestTimeout` after the bounded retries are
        exhausted, and :class:`TransportError` on a server-reported error or
        a protocol violation.
        """
        with self._slot_free:
            if self._closed:
                raise TransportError("client is closed")
            request_id = self._next_id
            self._next_id += 1
            self.counters.requests += 1
        payload = {"id": request_id, "op": op}
        payload.update(params)
        keys = codec.request_keys(payload)
        stats = RequestStats(attempts=0)
        while True:
            stats.attempts += 1
            connection = self._acquire()
            # Encoded per attempt, on the connection that sends it: a retry
            # on a fresh link starts that link's stream afresh.
            try:
                frame = codec.encode_frame(payload, stream=connection.stream)
            except BaseException as error:
                # A refused payload never touched the stream: keep the link.
                self._release(connection,
                              reuse=isinstance(error, codec.CodecError))
                raise
            stats.bytes_sent += len(frame)
            try:
                reply, received = connection.request(frame, self.timeout_s, keys)
            except TimeoutError:
                retrying = stats.attempts <= self.max_retries
                stats.timeouts += 1
                stats.retries += retrying
                with self._slot_free:
                    self.counters.timeouts += 1
                    self.counters.retries += retrying
                    self._release(connection, reuse=False)
                if not retrying:
                    raise RequestTimeout(
                        f"request {request_id} ({stats.attempts} attempts of "
                        f"{self.timeout_s}s) got no reply") from None
            except BaseException:
                self._release(connection, reuse=False)
                raise
            else:
                stats.bytes_received = received
                with self._slot_free:
                    self.counters.bytes_sent += stats.bytes_sent
                    self.counters.bytes_received += received
                    self._release(connection)
                return self._unwrap(request_id, reply), stats

    @staticmethod
    def _unwrap(request_id: int, reply: Dict[str, Any]) -> Any:
        if reply.get("id") != request_id:
            raise TransportError(f"reply id {reply.get('id')!r} does not match "
                                 f"request id {request_id}")
        if not reply.get("ok"):
            raise TransportError(f"server error: {reply.get('error')}")
        return reply.get("result")

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close every idle connection; leased ones close as they come back."""
        with self._slot_free:
            self._closed = True
            idle, self._idle = self._idle, []
            self._slot_free.notify_all()
        for connection in idle:
            connection.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteService:
    """A :class:`~repro.api.services.CurrencyService` speaking the wire protocol.

    Each operation forwards to the server, takes the shared result type
    back from the reply (the reply carries the result object itself, as a
    record, its trace as a :class:`~repro.dht.messages.TraceSummary`), and
    adds the transport-level retry messages to that summary — so
    ``Session.messages_sent`` keeps counting the way it does against the
    simulation backend, timeouts included.
    """

    def __init__(self, client: NetClient,
                 service_name: Optional[str] = None) -> None:
        self.client = client
        self.service_name = service_name

    def _call(self, op: str, result_type: type, **params: Any) -> Any:
        params["service"] = self.service_name
        result, stats = self.client.request(op, **params)
        if not isinstance(result, result_type):
            raise TransportError(f"{op} reply carried a "
                                 f"{type(result).__name__}, not a "
                                 f"{result_type.__name__}")
        # Same convention as the simulator's routing retries: one
        # LOOKUP_RETRY message, flagged timed out, per re-send.
        result.trace.record_route((), retries=stats.retries, timeouts=stats.retries)
        return result

    def insert(self, key: Any, data: Any, *, origin: Optional[int] = None,
               unreachable: FrozenSet[int] = frozenset()) -> InsertResult:
        """Write ``key`` to every replica holder, over the wire."""
        return self._call("insert", InsertResult, key=key, data=data,
                          origin=origin, unreachable=sorted(unreachable))

    def retrieve(self, key: Any, *, origin: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset(),
                 consistency: str = Consistency.CURRENT,
                 max_probes: Optional[int] = None) -> RetrieveResult:
        """Read ``key`` under the requested consistency level, over the wire."""
        return self._call("retrieve", RetrieveResult, key=key, origin=origin,
                          unreachable=sorted(unreachable),
                          consistency=consistency, max_probes=max_probes)

    def insert_many(self, items: Sequence[Tuple[Any, Any]], *,
                    origin: Optional[int] = None,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Write several keys in one wire exchange."""
        return self._call("insert_many", BatchInsertResult, items=list(items),
                          origin=origin, unreachable=sorted(unreachable))

    def retrieve_many(self, keys: Sequence[Any], *, origin: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset(),
                      consistency: str = Consistency.CURRENT,
                      max_probes: Optional[int] = None) -> BatchRetrieveResult:
        """Read several keys in one wire exchange."""
        return self._call("retrieve_many", BatchRetrieveResult,
                          keys=list(keys), origin=origin,
                          unreachable=sorted(unreachable),
                          consistency=consistency, max_probes=max_probes)


class RemoteCluster:
    """The client-side handle on a served cluster, handing out sessions.

    Mirrors the :class:`~repro.api.cluster.Cluster` surface the callers use
    (``session()``, ``service()``, ``size``) so the two backends are drop-in
    interchangeable behind the Session API.
    """

    def __init__(self, client: NetClient, info: Dict[str, Any]) -> None:
        self.client = client
        self.info = info
        self.service_name = info.get("service", "ums")
        self._services: Dict[Optional[str], RemoteService] = {}

    def service(self, name: Optional[str] = None) -> RemoteService:
        """The remote currency service registered under ``name`` on the server."""
        key = name.lower() if isinstance(name, str) else None
        instance = self._services.get(key)
        if instance is None:
            instance = RemoteService(self.client, key)
            self._services[key] = instance
        return instance

    def session(self, origin: Optional[int] = None, *,
                service: Optional[str] = None,
                consistency: str = Consistency.CURRENT) -> Session:
        """Open a standard :class:`Session` whose operations run over sockets."""
        return Session(self, self.service(service), origin=origin,
                       consistency=consistency)

    @property
    def size(self) -> int:
        """Number of live peers on the served cluster (at connect time)."""
        return self.info.get("peers", 0)

    def sync_replicas(self, keys: Optional[Sequence[Any]] = None) -> ReplicaSyncReport:
        """Run one delta anti-entropy round on the server.

        Mirrors :meth:`repro.api.cluster.Cluster.sync_replicas`: the wire
        carries ``report.to_dict()``, and its fields rebuild the same
        :class:`~repro.core.replication.ReplicaSyncReport`.
        """
        params: Dict[str, Any] = {}
        if keys is not None:
            params["keys"] = list(keys)
        result, _stats = self.client.request("sync", **params)
        return ReplicaSyncReport(**{field.name: result[field.name]
                                    for field in fields(ReplicaSyncReport)})

    def ping(self) -> bool:
        """Round-trip liveness check."""
        result, _stats = self.client.request("ping")
        return result == "pong"

    # reprolint: allow[REP008] reason=bench/backends.py stops its server through it; ROADMAP item 1
    def shutdown_server(self) -> None:
        """Ask the server to shut down gracefully."""
        self.client.request("shutdown")

    def close(self) -> None:
        """Close the underlying transport."""
        self.client.close()

    def __enter__(self) -> "RemoteCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteCluster(peers={self.size}, service={self.service_name!r})"


def connect(address: Address, *, pool_size: int = 2, timeout_s: float = 5.0,
            max_retries: int = 2) -> RemoteCluster:
    """Connect to a :class:`~repro.net.server.NodeServer` and return a cluster.

    ``address`` is ``(host, port)`` for TCP or a socket path for UDS; the
    client's links are sockets to it, opened with ``timeout_s`` too.  The
    handshake issues one ``info`` request, so a bad address fails fast here
    rather than on the first operation.
    """
    client = NetClient(partial(_open_socket, address, timeout_s),
                       pool_size=pool_size, timeout_s=timeout_s,
                       max_retries=max_retries)
    try:
        info, _stats = client.request("info")
    except TransportError:
        client.close()
        raise
    return RemoteCluster(client, info)
