"""Tests of the blocking-socket client transport (repro.net.client).

The client runs every request in the caller's thread on a pooled blocking
socket.  Pinned here: the per-attempt timeout is a deadline over the whole
exchange (not a per-``recv`` allowance), a swallowed reply is timed out,
torn down and retried on a fresh socket over TCP and a Unix socket, the pool
is safe to share between threads and never opens more than ``pool_size``
connections, the transport counters stay exact under sharing, and
``close()`` behaves whether the pool is idle, leased or waited on (the last
on the in-memory link of ``tests/net/memory_link.py``, which holds the
leased request on a simulated clock).
"""

from __future__ import annotations

import ast
import gc
import socket
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import pytest
from net.memory_link import MemoryNet

from repro.net import client as client_module
from repro.net import codec
from repro.net.client import (NetClient, RequestTimeout, TransportError,
                              _open_socket, connect)
from repro.net.server import NodeServer, ServerThread

#: Upper bound on every join/wait in this file.
JOIN_S = 20


class DribblingServer:
    """Accepts connections and answers each request one byte per ``gap_s``.

    Every ``recv`` of the client succeeds well inside a per-call timeout of
    ``3 * gap_s``; only a deadline over the whole attempt can expire.
    """

    def __init__(self, gap_s: float) -> None:
        self.gap_s = gap_s
        self.accepted = 0
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()[:2]
        self._workers = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            worker = threading.Thread(target=self._dribble,
                                      args=(connection,), daemon=True)
            worker.start()
            self._workers.append(worker)

    def _dribble(self, connection: socket.socket) -> None:
        decoder = codec.FrameDecoder()
        with connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                requests = []
                while not requests:
                    chunk = connection.recv(4096)
                    if not chunk:
                        return
                    requests = decoder.feed(chunk)
                reply = codec.encode_frame(
                    {"id": requests[0]["id"], "ok": True, "result": "pong",
                     "padding": "x" * 64})
                for index in range(len(reply)):
                    if self._stop.wait(self.gap_s):
                        return
                    connection.sendall(reply[index:index + 1])
            except OSError:
                return  # the client gave up and closed the link

    def close(self) -> None:
        self._stop.set()
        self._acceptor.join(timeout=JOIN_S)
        for worker in self._workers:
            worker.join(timeout=JOIN_S)
        self._listener.close()
        assert not self._acceptor.is_alive()
        assert not any(worker.is_alive() for worker in self._workers)


class TestDeadline:
    def test_dribbled_reply_times_the_attempt_out_once(self):
        timeout_s = 0.3
        server = DribblingServer(gap_s=timeout_s / 3)
        try:
            with NetClient(partial(_open_socket, server.address, timeout_s),
                           pool_size=1, timeout_s=timeout_s,
                           max_retries=0) as client:
                started = time.monotonic()
                with pytest.raises(RequestTimeout, match="1 attempts"):
                    client.request("ping")
                elapsed = time.monotonic() - started
                # ~100 reply bytes at 0.1 s each would take ~10 s under a
                # per-recv timeout; the deadline ends the attempt at ~0.3 s.
                assert timeout_s <= elapsed < 4 * timeout_s
                assert client.counters.timeouts == 1
                assert client.counters.retries == 0
                assert client.counters.reconnects == 1
                assert client.counters.bytes_received == 0
        finally:
            server.close()
        assert server.accepted == 1

    def test_each_retry_gets_a_fresh_deadline_and_a_fresh_connection(self):
        timeout_s = 0.2
        server = DribblingServer(gap_s=timeout_s / 3)
        try:
            with NetClient(partial(_open_socket, server.address, timeout_s),
                           pool_size=1, timeout_s=timeout_s,
                           max_retries=2) as client:
                started = time.monotonic()
                with pytest.raises(RequestTimeout, match="3 attempts"):
                    client.request("ping")
                elapsed = time.monotonic() - started
                assert 3 * timeout_s <= elapsed < 6 * timeout_s
                assert client.counters.timeouts == 3
                assert client.counters.retries == 2
        finally:
            server.close()
        assert server.accepted == 3


class TestSharedPool:
    def test_threads_sharing_a_pool_of_two(self, serve, monkeypatch):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        threads, rounds = 6, 15
        opened = []
        real_open = client_module._open_socket

        def counting_open(address, timeout_s):
            connection = real_open(address, timeout_s)
            opened.append(connection)
            return connection

        monkeypatch.setattr(client_module, "_open_socket", counting_open)
        cluster = connect(server.tcp_address, pool_size=2)
        client = cluster.client
        handshake = client.counters.as_dict()
        stats_seen = [[] for _ in range(threads)]
        failures = []

        def worker(number: int) -> None:
            try:
                for index in range(rounds):
                    key, data = f"t{number}", {"thread": number, "i": index}
                    _result, stats = client.request(
                        "insert", key=key, data=data, service=None,
                        origin=None, unreachable=[])
                    stats_seen[number].append(stats)
                    result, stats = client.request(
                        "retrieve", key=key, service=None, origin=None,
                        unreachable=[], consistency="current",
                        max_probes=None)
                    stats_seen[number].append(stats)
                    # Only this thread writes this key: anything else is a
                    # reply matched to the wrong request.  (A binary reply
                    # carries the result object itself.)
                    assert result.data == data and result.is_current
            except BaseException as error:  # noqa: B902 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(number,))
                       for number in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert failures == []
        # Never more than two connections: two opened in all, none replaced.
        assert len(opened) == 2
        assert len(server._connections) == 2
        counters = client.counters
        every = [stats for seen in stats_seen for stats in seen]
        assert len(every) == threads * rounds * 2
        assert counters.requests == handshake["requests"] + len(every)
        assert counters.bytes_sent == handshake["bytes_sent"] + sum(
            stats.bytes_sent for stats in every)
        assert counters.bytes_received == handshake["bytes_received"] + sum(
            stats.bytes_received for stats in every)
        assert (counters.retries, counters.timeouts, counters.reconnects) == \
            (0, 0, 0)
        assert all(stats.attempts == 1 for stats in every)
        cluster.close()

    def test_the_client_starts_no_thread_and_imports_no_asyncio(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        before = threading.active_count()
        with connect(server.tcp_address) as cluster:
            assert cluster.ping()
            assert threading.active_count() == before
        tree = ast.parse(Path(client_module.__file__).read_text())
        imported = {alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {(node.module or "").split(".")[0]
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "asyncio" not in imported
        assert "Thread(" not in Path(client_module.__file__).read_text()


class SwallowingServer:
    """Answers every request with a pong, except the first reply of the
    first connection, which it never sends: the raw-socket reply drop."""

    def __init__(self, path=None) -> None:
        if path is None:
            self._listener = socket.create_server(("127.0.0.1", 0))
            self.address = self._listener.getsockname()[:2]
        else:
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(path)
            self._listener.listen()
            self.address = path
        self.accepted = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._listener:
            while self.accepted < 2:
                connection, _peer = self._listener.accept()
                self.accepted += 1
                with connection:
                    self._answer(connection, swallow=self.accepted == 1)

    @staticmethod
    def _answer(connection: socket.socket, swallow: bool) -> None:
        decoder, stream = codec.FrameDecoder(), codec.DeflateStream()
        while chunk := connection.recv(4096):  # until the client closes
            for request in decoder.feed(chunk):
                if swallow:
                    swallow = False
                    continue
                connection.sendall(codec.encode_frame(
                    {"id": request["id"], "ok": True, "result": "pong"},
                    stream=stream))

    def join(self) -> None:
        self._thread.join(timeout=JOIN_S)
        assert not self._thread.is_alive()


class TestSwallowedReply:
    @pytest.mark.parametrize("family", ["tcp", "uds"])
    def test_timeout_retry_reconnects_over_a_socket(self, family, tmp_path):
        """A reply the server never sends: the socket link's deadline ends
        the attempt, the socket is torn down, and the retry on a fresh one
        is answered — over a real kernel socket of either family."""
        timeout_s = 0.2
        server = SwallowingServer(None if family == "tcp"
                                  else str(tmp_path / "node.sock"))
        with NetClient(partial(_open_socket, server.address, timeout_s),
                       pool_size=1, timeout_s=timeout_s,
                       max_retries=1) as client:
            started = time.monotonic()
            result, stats = client.request("ping")
            assert timeout_s <= time.monotonic() - started < JOIN_S
            assert result == "pong"
            assert (stats.attempts, stats.retries, stats.timeouts) == (2, 1, 1)
            counters = client.counters
            assert (counters.timeouts, counters.retries,
                    counters.reconnects) == (1, 1, 1)
            assert counters.bytes_sent == stats.bytes_sent
            assert counters.bytes_received == stats.bytes_received > 0
        server.join()
        assert server.accepted == 2


class TestClose:
    def test_close_while_idle_closes_the_pooled_sockets(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        cluster = connect(server.tcp_address, pool_size=2)
        assert cluster.ping()
        idle = list(cluster.client._idle)
        assert len(idle) == 1  # slots open lazily: one caller, one socket
        cluster.close()
        cluster.close()  # idempotent
        assert all(connection.sock.fileno() == -1 for connection in idle)
        assert cluster.client._idle == []
        with pytest.raises(TransportError, match="closed"):
            cluster.client.request("ping")

    def test_close_wakes_a_waiter_and_lets_the_leased_request_finish(self):
        """While a stalled reply holds the only slot, a second thread waits
        for it and ``close()`` is called: the waiter wakes to a closed
        client, and the leased request still completes."""
        net = MemoryNet(NodeServer(peers=16, replicas=4, seed=11),
                        stall={1: 0.4})
        cluster = net.connect(pool_size=1)
        client, outcomes = cluster.client, {}
        client._slot_free = slot_free = AnnouncingCondition()

        def waiting_ping() -> None:
            try:
                outcomes["waiter"] = cluster.ping()
            except TransportError as error:
                outcomes["waiter"] = error

        waiter = threading.Thread(target=waiting_ping)

        def close_while_leased() -> None:
            # The insert holds the slot: the waiter blocks on it, and only
            # then is the client closed under both.
            assert client._leased == 1
            waiter.start()
            assert slot_free.waiting.wait(timeout=JOIN_S)
            cluster.close()

        net.sim.schedule(0.1, close_while_leased)
        with cluster.session() as session:
            outcomes["leased"] = session.insert("k", {"v": 1})
        waiter.join(timeout=JOIN_S)
        assert not waiter.is_alive()
        assert isinstance(outcomes["waiter"], TransportError)
        assert "closed" in str(outcomes["waiter"])
        # The request that held the slot was not interrupted by close() ...
        assert outcomes["leased"].replicas_written == 4
        # ... and its connection was closed, not pooled, when it came back.
        assert cluster.client._idle == [] and cluster.client._leased == 0
        assert net.links[0].closed

    def test_a_failed_open_gives_the_slot_back(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
        client = NetClient(partial(_open_socket, dead_address, 0.2),
                           pool_size=1, timeout_s=0.2)
        for _ in range(3):  # would block for ever if the slot leaked
            with pytest.raises(TransportError, match="cannot connect"):
                client.request("ping")
        assert client._leased == 0
        client.close()


class AnnouncingCondition(threading.Condition):
    """A condition that sets ``waiting`` when a thread starts to wait on it.

    It is set with the lock held, so whoever sees it and then takes the
    lock knows the waiter is parked in ``wait()``."""

    def __init__(self) -> None:
        super().__init__(threading.RLock())
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        self.waiting.set()
        return super().wait(timeout)


class _ClosedLoop:
    """What ``ServerThread.stop`` meets when the loop shut down under it."""

    def is_closed(self) -> bool:
        return False  # ... at the liveness check; closed by the call below

    def call_soon_threadsafe(self, *args, **kwargs):
        raise RuntimeError("Event loop is closed")


class _StillAlive:
    def is_alive(self) -> bool:
        return True

    def join(self, timeout=None) -> None:
        return None


class TestServerThreadStop:
    def test_stop_after_a_client_shutdown_leaves_no_unawaited_coroutine(self):
        thread = ServerThread(NodeServer(peers=8, replicas=3, seed=1)).start()
        with connect(thread.server.tcp_address) as cluster:
            cluster.shutdown_server()
        thread._thread.join(timeout=JOIN_S)
        assert not thread._thread.is_alive()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thread.stop()  # the plain sequence: loop closed, thread gone
            # The race: thread and loop looked alive at the check, and the
            # loop closed before the stop request reached it.
            thread._loop, thread._thread = _ClosedLoop(), _StillAlive()
            thread.stop()
            gc.collect()
        assert [str(warning.message) for warning in caught
                if issubclass(warning.category, RuntimeWarning)] == []
