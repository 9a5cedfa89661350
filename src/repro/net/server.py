"""Asyncio node server: the service side of real-service mode.

A :class:`NodeServer` hosts the same substrate the simulation backend wires
in-process — an overlay population with per-peer
:class:`~repro.dht.storage.LocalStore` replicas, the KTS timestamping service
and the registered currency services (UMS/BRK handlers) — behind
length-prefixed frames (:mod:`repro.net.codec`) over TCP and/or a Unix
domain socket.  Every request and every reply is the next piece of its
connection's deflate stream, one per direction; a request arrives as a
request record and its reply leaves as an answer or error record
(:mod:`repro.net.wire`), whose result records leave out the keys its
request named (:func:`~repro.net.codec.request_keys`).

A connection is an :class:`asyncio.Protocol`, not a pair of streams: the
loop hands ``data_received`` the bytes it read, the frames they complete are
decoded, and each request is executed **inline, in strict arrival order**,
its reply written with ``transport.write`` before the callback returns — one
event-loop turn per request, no queue hand-over, no per-connection task.
Requests only *wait* while the transport called ``pause_writing`` because the
client is not reading its replies.  Flow control is on both sides of that
backlog: once ``max_inflight`` requests wait the socket is no longer read
(``pause_reading``, resumed below the bound), and backpressure propagates
through the kernel socket buffers to the sender; while the write buffer is
over its high-water mark nothing is executed, so replies never pile up
either.  A chunk already read is decoded whole, so the backlog can exceed
``max_inflight`` by what one read held — the server's memory stays bounded
no matter how fast clients write or how slowly they read.

Shutdown is graceful: :meth:`NodeServer.stop` (or a client ``shutdown``
request) stops accepting connections and stops reading; every connection
answers the requests it had already read, flushes the replies and only then
closes.  A malformed frame closes its connection the same way — after the
intact requests ahead of it are answered.  A reply that cannot be encoded
(over the frame limit, say) is refused before it touches the stream and
answered with a ``CodecError`` error reply instead.

The connection touches nothing but its transport's ``write``, ``close``,
``is_closing`` and ``pause_reading``/``resume_reading``, so a test can drive
it through a fake transport on a simulated clock; lost, late or reset
replies are faults of the link a client talks through, not of the server.

:class:`ServerThread` runs a server on a private event loop in a daemon
thread — the harness tests and the socket suites drive a real socket server
through it without an async caller.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, cast

from repro import __version__
from repro.api.cluster import Cluster
from repro.net import codec

__all__ = ["NodeServer", "ServerThread"]

#: The data-plane operations, each served by the cluster's currency service.
_DATA_OPS = ("insert", "retrieve", "insert_many", "retrieve_many")


class NodeServer:
    """Hosts a cluster's overlay + stores + KTS/UMS handlers over sockets.

    Parameters
    ----------
    cluster:
        An already-built :class:`~repro.api.cluster.Cluster` to serve; when
        ``None`` one is built from the remaining keyword arguments, using the
        exact ``Cluster.build`` path the simulation backend uses — same seed,
        same stack, which is what makes backend parity testable.
    max_inflight:
        How many decoded requests may wait on one connection before its
        socket stops being read (the backpressure knob).
    """

    def __init__(self, cluster: Optional[Cluster] = None, *, peers: int = 64,
                 protocol: str = "chord", service: str = "ums",
                 replicas: int = 10, seed: Optional[int] = None,
                 max_inflight: int = 32) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if cluster is None:
            cluster = Cluster.build(peers=peers, protocol=protocol,
                                    service=service, replicas=replicas,
                                    seed=seed)
        self.cluster = cluster
        self.max_inflight = max_inflight
        self.requests_served = 0
        self.max_observed_inflight = 0
        self._servers: list = []
        self._connections: set = set()
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._shutdown_task: Optional["asyncio.Task"] = None
        self._tcp_address: Optional[Tuple[str, int]] = None
        self._uds_path: Optional[str] = None

    # ------------------------------------------------------------- lifecycle
    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)`` once :meth:`start` opened a TCP listener."""
        return self._tcp_address

    @property
    def uds_path(self) -> Optional[str]:
        """The bound Unix-socket path once :meth:`start` opened a UDS listener."""
        return self._uds_path

    async def start(self, *, host: Optional[str] = "127.0.0.1", port: int = 0,
                    uds: Optional[str] = None) -> None:
        """Open the TCP and/or UDS listeners (``port=0`` picks a free port)."""
        if uds is None and host is None:
            raise ValueError("pass a TCP host/port, a UDS path, or both")
        self._stopped = asyncio.Event()
        loop = asyncio.get_running_loop()
        if host is not None:
            server = await loop.create_server(lambda: _Connection(self),
                                              host=host, port=port)
            self._servers.append(server)
            self._tcp_address = server.sockets[0].getsockname()[:2]
        if uds is not None:
            server = await loop.create_unix_server(lambda: _Connection(self),
                                                   path=uds)
            self._servers.append(server)
            self._uds_path = uds

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, answer every backlog, close."""
        if self._stopping:
            return
        self._stopping = True
        self._drained = asyncio.Event()
        for server in self._servers:
            server.close()
        # Each connection answers what it already read, flushes and closes.
        for connection in list(self._connections):
            connection.finish()
        for server in self._servers:
            await server.wait_closed()
        # Wait until the last transport is gone, so the loop (and an
        # enclosing asyncio.run) has nothing left open at teardown.
        if self._connections:
            await self._drained.wait()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request) completed."""
        if self._stopped is None:
            raise RuntimeError("server was never started")
        await self._stopped.wait()

    # ------------------------------------------------------------ connections
    def _connection_closed(self, connection: "_Connection") -> None:
        self._connections.discard(connection)
        if self._drained is not None and not self._connections:
            self._drained.set()

    # -------------------------------------------------------------- handlers
    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request and return the reply payload.

        A data operation's ``result`` is the result object itself, which
        the wire carries as a record.  Handlers run synchronously (the cluster
        substrate is plain Python) in strict per-connection arrival order,
        which keeps the server-side RNG stream a function of the request
        sequence — the property the backend parity test pins.
        """
        op = request.get("op")
        request_id = request.get("id")
        try:
            result = self._dispatch(op, request)
        except Exception as error:  # noqa: B902 - reply instead of killing the link
            return {"id": request_id, "ok": False,
                    "error": f"{type(error).__name__}: {error}"}
        return {"id": request_id, "ok": True, "result": result}

    def _dispatch(self, op: Optional[str], request: Dict[str, Any]) -> Any:
        if op == "ping":
            return "pong"
        if op == "info":
            return {"peers": self.cluster.size,
                    "protocol": self.cluster.network.protocol.protocol_name,
                    "service": self.cluster.service_name,
                    "replicas": self.cluster.replication.factor,
                    "version": __version__}
        if op == "sync":
            return self.cluster.sync_replicas(request.get("keys")).to_dict()
        if op == "shutdown":
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.stop())
            return "stopping"
        if op in _DATA_OPS:
            return self._dispatch_data_op(op, request)
        raise ValueError(f"unknown operation {op!r}")

    def _dispatch_data_op(self, op: str, request: Dict[str, Any]) -> Any:
        service = self.cluster.service(request.get("service"))
        origin = request.get("origin")
        unreachable = frozenset(request.get("unreachable", ()))
        if op == "insert":
            return service.insert(request["key"], request.get("data"),
                                  origin=origin, unreachable=unreachable)
        if op == "retrieve":
            return service.retrieve(request["key"], origin=origin,
                                    unreachable=unreachable,
                                    consistency=request.get("consistency",
                                                            "current"),
                                    max_probes=request.get("max_probes"))
        if op == "insert_many":
            items = [(key, data) for key, data in request["items"]]
            return service.insert_many(items, origin=origin,
                                       unreachable=unreachable)
        return service.retrieve_many(
            request["keys"], origin=origin, unreachable=unreachable,
            consistency=request.get("consistency", "current"),
            max_probes=request.get("max_probes"))


class _Connection(asyncio.Protocol):
    """One client connection: requests run inline, in arrival order.

    They only *wait* (in ``_backlog``) while the transport asked the writer
    to pause.
    """

    def __init__(self, server: NodeServer) -> None:
        self.server = server
        self._decoder = codec.FrameDecoder()
        self._stream = codec.DeflateStream()
        self._backlog: Deque[Dict[str, Any]] = deque()
        self._transport: asyncio.Transport  # set by connection_made
        self._write_paused = False
        self._finishing = False

    # ------------------------------------------------------ protocol callbacks
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self.server._connections.add(self)
        if self.server._stopping:  # accepted while the listeners were closing
            self.finish()

    def data_received(self, data: bytes) -> None:
        decoder = self._decoder
        requests: List[Dict[str, Any]] = []
        try:
            requests = decoder.feed(data)
            if requests and decoder.pending_bytes:
                # Behind them: the start of the next frame, or a malformed
                # one, which the decoder reports on the call after.
                decoder.feed(b"")
        except codec.CodecError:
            # A malformed frame ends the link, but only after everything that
            # arrived intact ahead of it is answered.
            self._finishing = True
        server = self.server
        backlog = self._backlog
        for request in requests:
            backlog.append(request)
            if len(backlog) > server.max_observed_inflight:
                server.max_observed_inflight = len(backlog)
            self._pump()
        if self._finishing:
            self._pump()

    def eof_received(self) -> bool:
        # The client half-closed: answer what is queued, then close.
        self.finish()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._backlog.clear()
        self.server._connection_closed(self)

    # -------------------------------------------------------------- execution
    def finish(self) -> None:
        """Stop reading; close once the backlog is answered and flushed."""
        self._finishing = True
        self._pump()

    def _pump(self) -> None:
        """Run waiting requests while writing may go on; then set flow control."""
        transport = self._transport
        backlog = self._backlog
        while backlog and not self._write_paused and not transport.is_closing():
            self._execute(backlog.popleft())
        if transport.is_closing():
            backlog.clear()  # reset under us: nobody is left to answer
        elif self._finishing and not backlog:
            transport.close()  # flushes the write buffer, then drops the link
        elif self._finishing or len(backlog) >= self.server.max_inflight:
            # Backpressure point: the socket is no longer read, and the
            # kernel buffers push back on the sender.
            transport.pause_reading()
        else:
            transport.resume_reading()

    def _execute(self, request: Dict[str, Any]) -> None:
        server = self.server
        reply = server.handle_request(request)
        server.requests_served += 1
        # Encoding here, in execution order, keeps the stream in write order.
        try:
            frame = codec.encode_frame(reply, stream=self._stream,
                                       keys=codec.request_keys(request))
        except codec.CodecError as error:
            # Refused before it touched the stream: answer, keep the link.
            frame = codec.encode_frame(
                {"id": reply.get("id"), "ok": False,
                 "error": f"CodecError: {error}"}, stream=self._stream)
        self._transport.write(frame)


class ServerThread:
    """Run a :class:`NodeServer` on a private event loop in a daemon thread.

    The constructor arguments are forwarded to :meth:`NodeServer.start`.
    ``start()`` returns once the listeners are bound; ``stop()`` requests a
    graceful shutdown from any thread and joins.  Usable as a context
    manager::

        with ServerThread(NodeServer(peers=32, seed=7)) as thread:
            cluster = connect(thread.server.tcp_address)
    """

    def __init__(self, server: NodeServer, *, host: Optional[str] = "127.0.0.1",
                 port: int = 0, uds: Optional[str] = None) -> None:
        self.server = server
        self._start_kwargs = {"host": host, "port": port, "uds": uds}
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_task: Optional["asyncio.Task"] = None

    def start(self) -> "ServerThread":
        """Launch the loop thread and block until the server is listening."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-net-server")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start(**self._start_kwargs))
        except BaseException as error:  # noqa: B902 - reported to start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.wait_stopped())
            # ``stop()`` saw every transport off; a task the loop started
            # for a connection accepted in its last turn may still be pending.
            pending = [task for task in asyncio.all_tasks(loop)
                       if not task.done()]
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=1.0))
        finally:
            loop.close()

    def stop(self) -> None:
        """Request a graceful stop and join the loop thread."""
        loop = self._loop
        if loop is not None and self._thread is not None \
                and self._thread.is_alive():
            try:
                # Only the callback crosses threads; the ``stop()`` coroutine
                # is created on the loop when it runs.  A loop that a client's
                # ``shutdown`` already stopped or closed drops the callback,
                # so no never-awaited coroutine is left behind.
                loop.call_soon_threadsafe(self._schedule_stop)
            except RuntimeError:
                pass  # the loop closed between the liveness check and the call
        if self._thread is not None:
            self._thread.join(timeout=10)

    def _schedule_stop(self) -> None:
        self._stop_task = asyncio.get_running_loop().create_task(
            self.server.stop())

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
