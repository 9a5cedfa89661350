"""Client transport: connection pool, timeouts and bounded retries.

:func:`connect` opens a :class:`RemoteCluster` against a running
:class:`~repro.net.server.NodeServer`, and hands out the **same**
:class:`~repro.api.cluster.Session` handles the simulation backend does —
the session's service is a :class:`RemoteService` satisfying the
:class:`~repro.api.services.CurrencyService` protocol, so every caller written
against ``Cluster``/``Session`` (apps, load generator, tests) drives real
sockets without changing a line.

The transport internals:

* every caller is synchronous, so the transport is too: a request is one
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
* a binary connection's frames are one deflate stream per direction
  (:class:`~repro.net.wire.DeflateStream` out, the
  :class:`~repro.net.codec.FrameDecoder` in), so a request is encoded per
  attempt, on the connection that sends it: a retry on a fresh link starts
  fresh streams, and ``bytes_sent`` adds up the frames actually sent.

Retries map onto the existing accounting: each timeout-retry is recorded in
the operation's :class:`~repro.dht.messages.OperationTrace` as a
``LOOKUP_RETRY`` message with ``timed_out=True`` — byte-for-byte the
convention :meth:`OperationTrace.record_route` uses for the simulator's
routing retries — and tallied in :class:`TransportCounters`.  Note the
at-least-once consequence: a dropped *reply* does not undo the executed
request, so a retried insert simply stamps a newer timestamp (newest-wins
makes inserts idempotent in effect).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import asdict, dataclass
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
    """One pooled connection: a blocking socket, the deflate stream of what
    it sends and the frame decoder of what it receives."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.stream = codec.DeflateStream()
        self.decoder = codec.FrameDecoder()

    def request(self, frame: bytes,
                timeout_s: float) -> Tuple[Dict[str, Any], int]:
        """Send one encoded frame; return the reply payload and its wire bytes.

        ``timeout_s`` bounds the whole exchange: the deadline is carried
        across ``recv`` calls, so a reply dribbling in cannot stretch the
        attempt (``socket.timeout`` is raised once the deadline passes).
        The byte count is *measured* (bytes read off the socket for this
        reply, header included), not recomputed from the payload — so the
        transport counters stay exact whichever format the server replied in.
        """
        # reprolint: allow[REP001] reason=a request timeout is wall-clock by definition and never reaches a result or a trace; the deadline semantics are pinned by tests/net/test_client_transport.py
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
                frames = self.decoder.feed(chunk)
                if frames:
                    break
                # reprolint: allow[REP001] reason=remaining share of the same wall-clock request deadline (tests/net/test_client_transport.py)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("request deadline passed")
                self.sock.settimeout(remaining)
        except socket.timeout:
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


class NetClient:
    """Synchronous, thread-safe request facade over pooled blocking sockets.

    Parameters
    ----------
    address:
        ``(host, port)`` for TCP or a socket path (``str``) for UDS.
    pool_size:
        Upper bound on open connections (each slot is opened lazily); a
        thread that finds every slot in use waits for one to come back.
    timeout_s:
        Per-attempt reply timeout (also bounds opening a connection).
    max_retries:
        How many times a timed-out request is re-sent before
        :class:`RequestTimeout` is raised (total attempts =
        ``max_retries + 1``).
    wire_format:
        Body encoding of outgoing frames (``"json"`` or ``"binary"``); the
        server replies in kind.  :func:`connect` negotiates this from the
        server's ``info`` advertisement — only set it directly against a
        server known to accept the format.
    """

    def __init__(self, address: Address, *, pool_size: int = 2,
                 timeout_s: float = 5.0, max_retries: int = 2,
                 wire_format: str = codec.FORMAT_JSON) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.address = address
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.wire_format = codec.normalize_wire_format(wire_format)
        self.counters = TransportCounters()
        self._next_id = 0
        self._closed = False
        # Guards the ids, the counters and the pool (re-entrant, so holders
        # may call ``_release``): ``_idle`` holds the open connections nobody
        # is using, ``_leased`` counts the slots handed out, and
        # ``len(_idle) + _leased`` never exceeds ``pool_size``.
        self._slot_free = threading.Condition()
        self._idle: List[_Connection] = []
        self._leased = 0

    # ---------------------------------------------------------------- pool
    def _open_connection(self) -> _Connection:
        try:
            if isinstance(self.address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.timeout_s)
                    sock.connect(self.address)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(self.address,
                                                timeout=self.timeout_s)
                # One small frame per direction per request: Nagle would
                # only ever delay it.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            raise TransportError(f"cannot connect to {self.address!r}: "
                                 f"{error}") from error
        return _Connection(sock)

    def _acquire(self) -> _Connection:
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
            return self._open_connection()
        except TransportError:
            self._release(None)
            raise

    def _release(self, connection: Optional[_Connection], *,
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
        stats = RequestStats(attempts=0)
        while True:
            stats.attempts += 1
            connection = self._acquire()
            # Encoded per attempt, on the connection that sends it: a retry
            # on a fresh link starts that link's stream afresh.
            try:
                frame = codec.encode_frame(payload, wire_format=self.wire_format,
                                           stream=connection.stream)
            except BaseException as error:
                # A refused payload never touched the stream: keep the link.
                self._release(connection,
                              reuse=isinstance(error, codec.CodecError))
                raise
            stats.bytes_sent += len(frame)
            try:
                reply, received = connection.request(frame, self.timeout_s)
            except socket.timeout:
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
    back from the reply (a binary reply carries the object itself, a JSON
    one its ``*_to_dict`` form, decoded here), and appends the
    transport-level retry messages to the result's trace — so
    ``Session.messages_sent`` keeps counting the way it does against the
    simulation backend, timeouts included.
    """

    def __init__(self, client: NetClient,
                 service_name: Optional[str] = None) -> None:
        self.client = client
        self.service_name = service_name

    def _call(self, op: str, result_type: type,
              decode: Callable[[Dict[str, Any]], Any], **params: Any) -> Any:
        params["service"] = self.service_name
        payload, stats = self.client.request(op, **params)
        # A binary reply carries the result object; a JSON one its dict form.
        result = decode(payload) if isinstance(payload, dict) else payload
        if not isinstance(result, result_type):
            raise TransportError(f"{op} reply carried a "
                                 f"{type(result).__name__}, not a "
                                 f"{result_type.__name__}")
        if stats.retries:
            # Same convention as the simulator's routing retries: one
            # LOOKUP_RETRY message, flagged timed out, per re-send.
            result.trace.record_route([], retries=stats.retries,
                                      timeouts=stats.retries)
        return result

    def insert(self, key: Any, data: Any, *, origin: Optional[int] = None,
               unreachable: FrozenSet[int] = frozenset()) -> InsertResult:
        """Write ``key`` to every replica holder, over the wire."""
        return self._call("insert", InsertResult,
                          codec.insert_result_from_dict,
                          key=codec.encode_value(key),
                          data=codec.encode_value(data), origin=origin,
                          unreachable=sorted(unreachable))

    def retrieve(self, key: Any, *, origin: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset(),
                 consistency: str = Consistency.CURRENT,
                 max_probes: Optional[int] = None) -> RetrieveResult:
        """Read ``key`` under the requested consistency level, over the wire."""
        return self._call("retrieve", RetrieveResult,
                          codec.retrieve_result_from_dict,
                          key=codec.encode_value(key), origin=origin,
                          unreachable=sorted(unreachable),
                          consistency=consistency, max_probes=max_probes)

    def insert_many(self, items: Sequence[Tuple[Any, Any]], *,
                    origin: Optional[int] = None,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Write several keys in one wire exchange."""
        return self._call(
            "insert_many", BatchInsertResult,
            codec.batch_insert_result_from_dict,
            items=[[codec.encode_value(key), codec.encode_value(data)]
                   for key, data in items],
            origin=origin, unreachable=sorted(unreachable))

    def retrieve_many(self, keys: Sequence[Any], *, origin: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset(),
                      consistency: str = Consistency.CURRENT,
                      max_probes: Optional[int] = None) -> BatchRetrieveResult:
        """Read several keys in one wire exchange."""
        return self._call(
            "retrieve_many", BatchRetrieveResult,
            codec.batch_retrieve_result_from_dict,
            keys=[codec.encode_value(key) for key in keys],
            origin=origin, unreachable=sorted(unreachable),
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

    @property
    def wire_format(self) -> str:
        """The negotiated body encoding of this connection's frames."""
        return self.client.wire_format

    def sync_replicas(self, keys: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
        """Run one delta anti-entropy round on the server.

        Mirrors :meth:`repro.api.cluster.Cluster.sync_replicas`; returns the
        :class:`~repro.core.replication.ReplicaSyncReport` as a plain dict
        (the wire form of ``report.to_dict()``).
        """
        params: Dict[str, Any] = {}
        if keys is not None:
            params["keys"] = [codec.encode_value(key) for key in keys]
        result, _stats = self.client.request("sync", **params)
        return result

    def ping(self) -> bool:
        """Round-trip liveness check."""
        result, _stats = self.client.request("ping")
        return result == "pong"

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
        return (f"RemoteCluster(address={self.client.address!r}, "
                f"peers={self.size}, service={self.service_name!r})")


def connect(address: Address, *, pool_size: int = 2, timeout_s: float = 5.0,
            max_retries: int = 2, wire_format: str = "auto") -> RemoteCluster:
    """Connect to a :class:`~repro.net.server.NodeServer` and return a cluster.

    ``address`` is ``(host, port)`` for TCP or a socket path for UDS.  The
    handshake issues one ``info`` request (always in JSON, which every server
    speaks), so a bad address fails fast here rather than on the first
    operation — and the reply doubles as the wire-format negotiation: the
    server advertises the frame encodings it accepts in ``wire_formats``.

    ``wire_format`` selects the encoding of subsequent frames:

    * ``"auto"`` (default) — binary when the server advertises it, JSON
      otherwise;
    * ``"binary"`` — binary when advertised, falling back to JSON against an
      older server that never advertised formats (old servers keep working);
    * ``"json"`` — always JSON.
    """
    if wire_format != "auto":
        codec.normalize_wire_format(wire_format)  # fail fast on typos
    client = NetClient(address, pool_size=pool_size, timeout_s=timeout_s,
                       max_retries=max_retries)
    try:
        info, _stats = client.request("info")
    except TransportError:
        client.close()
        raise
    advertised = info.get("wire_formats", [codec.FORMAT_JSON])
    if wire_format in ("auto", codec.FORMAT_BINARY) \
            and codec.FORMAT_BINARY in advertised:
        client.wire_format = codec.FORMAT_BINARY
    return RemoteCluster(client, info)
