"""An in-memory link to a real server connection, on a simulated clock.

A :class:`MemoryLink` is what a :class:`~repro.net.client.NetClient` built
as ``NetClient(net.open)`` sends through in place of a socket: its frames
reach the server's own connection protocol (the ``asyncio.Protocol`` a
socket server runs) through a fake transport, and every chunk in either
direction arrives by a :class:`~repro.simulation.engine.Simulator` callback
one latency (plus a seeded jitter) later, never overtaking the chunk before
it.  The service path then runs on simulated time and reads no clock.

Faults belong to the link, indexed by reply: the ``n``-th reply the server
writes through any link of one :class:`MemoryNet` (the handshake's is 0) can
be dropped, delayed some seconds (whatever follows waits behind it), stalled
(it sits unread that long, so the transport calls ``pause_writing`` now and
``resume_writing`` then), or reset (half of it arrives, then the link is
gone).
"""

from __future__ import annotations

import random
from collections import deque

from repro.net import codec
from repro.net.client import NetClient, RemoteCluster, TransportError
from repro.net.server import _Connection
from repro.simulation.engine import Simulator


class _Arrived(Exception):
    """Ends a simulator run: bytes reached a client that waits for them."""


class MemoryNet:
    """A server, the clock its links share and their fault plan."""

    def __init__(self, server, *, seed=0, latency_s=0.005, jitter_s=0.0,
                 drop=(), delay=None, stall=None, reset=()):
        self.server, self.sim, self.rng = server, Simulator(), random.Random(seed)
        self.latency_s, self.jitter_s = latency_s, jitter_s
        self.drop, self.reset = set(drop), set(reset)
        self.delay, self.stall = dict(delay or {}), dict(stall or {})
        self.replies = 0  # replies written through every link so far
        self.links = []  # every link opened, in order

    def open(self) -> "MemoryLink":
        """A fresh link to a fresh server connection: the client's opener."""
        self.links.append(MemoryLink(self))
        return self.links[-1]

    def connect(self, **options) -> RemoteCluster:
        """What :func:`repro.net.connect` does, over this net's links."""
        client = NetClient(self.open, **options)
        info, _stats = client.request("info")
        return RemoteCluster(client, info)


class _Pipe:
    """One direction of a link: callbacks run in the order they were put."""

    def __init__(self, net: MemoryNet) -> None:
        self.net, self.queue, self.ready = net, deque(), 0.0

    def put(self, callback, extra_s=0.0) -> None:
        net = self.net
        self.ready = max(self.ready, net.sim.now + net.latency_s + extra_s
                         + net.rng.random() * net.jitter_s)
        # Each firing runs the oldest callback, so chunks keep their order
        # even where rounding of ``ready - now`` ties two arrivals.
        self.queue.append(callback)
        net.sim.schedule(self.ready - net.sim.now, lambda: self.queue.popleft()())


class MemoryLink:
    """The client end of one link (the link contract :class:`NetClient` uses)."""

    def __init__(self, net: MemoryNet) -> None:
        self.net, self.up = net, _Pipe(net)
        self.stream, self.decoder = codec.DeflateStream(), codec.FrameDecoder()
        self.sent, self.received, self.unread = bytearray(), bytearray(), bytearray()
        self.eof = self.closed = self.waiting = False
        self.transport = _Transport(self)
        self.connection = _Connection(net.server)
        self.connection.connection_made(self.transport)

    def send(self, data: bytes) -> None:
        """Write raw bytes toward the server."""
        self.sent += data
        self.up.put(lambda: self.transport.receive(data))

    def deliver(self, data: bytes) -> None:
        """Bytes from the server reach this end (``b""``: the link is gone)."""
        if not self.closed:
            self.received += data
            self.unread += data
            self.eof = self.eof or not data
            if self.waiting:
                raise _Arrived

    def request(self, frame: bytes, timeout_s: float, keys):
        """Send ``frame``; run the clock until its reply or ``timeout_s``."""
        deadline, frames, received = self.net.sim.now + timeout_s, [], 0
        self.send(frame)
        self.waiting = True
        try:
            while not frames:
                try:
                    self.net.sim.run(until=deadline)
                except _Arrived:
                    received += len(self.unread)
                    frames = self.take(keys)
                else:
                    raise TimeoutError("request deadline passed")
        finally:
            self.waiting = False
        return frames[0], received

    def take(self, keys=None) -> list:
        """Decode what arrived; a gone link or a bad frame is a TransportError."""
        chunk, self.unread = bytes(self.unread), bytearray()
        try:
            frames = self.decoder.feed(chunk, keys=keys)
        except codec.CodecError as error:
            raise TransportError(f"connection failed: {error}") from error
        if self.eof and not frames:
            raise TransportError("server closed the connection")
        return frames

    def close(self) -> None:
        """The client closes its end: the server sees end-of-file."""
        if not self.closed:
            self.closed = True
            self.up.put(self.transport.end_of_file)

    def reset(self) -> None:
        """The client vanishes: the server sees the link reset."""
        self.closed = True
        self.up.put(lambda: self.transport.lost(ConnectionResetError()))


class _Transport:
    """The server end: the ``asyncio.Transport`` surface the connection uses."""

    def __init__(self, link: MemoryLink) -> None:
        self.link, self.down, self.held = link, _Pipe(link.net), b""
        self.closing = self.gone = False
        self.reading = True

    def receive(self, data: bytes = b"") -> None:
        self.held += data  # what arrives while reading is paused waits here
        if self.reading and not self.closing and self.held:
            held, self.held = self.held, b""
            self.link.connection.data_received(held)

    def end_of_file(self) -> None:
        if not self.closing:
            self.link.connection.eof_received()

    def lost(self, error=None) -> None:
        if not self.gone:
            self.gone = self.closing = True
            self.link.connection.connection_lost(error)

    def write(self, data: bytes) -> None:
        net, link = self.link.net, self.link
        index, net.replies = net.replies, net.replies + 1
        if index in net.stall:
            link.connection.pause_writing()
            net.sim.schedule(net.stall[index], lambda: self.gone
                             or link.connection.resume_writing())
        if index in net.reset:
            self.down.put(lambda: link.deliver(data[:len(data) // 2]))
            self.down.put(lambda: (self.lost(ConnectionResetError()), link.deliver(b"")))
        elif index not in net.drop:
            self.down.put(lambda: link.deliver(data),
                          net.delay.get(index, 0.0) + net.stall.get(index, 0.0))

    def close(self) -> None:
        if not self.closing:
            self.closing = True
            self.down.put(lambda: (self.lost(), self.link.deliver(b"")))

    def is_closing(self) -> bool:
        return self.closing

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True
        if self.held:
            self.link.net.sim.schedule(0.0, self.receive)
