"""Shared fixtures for the service-mode (repro.net) tests."""

from __future__ import annotations

import socket

import pytest

from repro.net import codec
from repro.net.server import NodeServer, ServerThread


@pytest.fixture
def serve():
    """Factory: run a :class:`NodeServer` in a daemon thread, stopped at teardown.

    Returns a callable taking the server plus the ``ServerThread`` bind
    arguments (``host``/``port``/``uds``); every started thread is stopped
    when the test finishes, whether it passed or not.
    """
    threads = []

    def _serve(server: NodeServer, *, host="127.0.0.1", port=0, uds=None):
        thread = ServerThread(server, host=host, port=port, uds=uds)
        thread.start()
        threads.append(thread)
        return server

    yield _serve
    for thread in threads:
        thread.stop()


@pytest.fixture(params=["tcp", "uds"])
def dial(request, serve, tmp_path):
    """Factory: serve a :class:`NodeServer` over TCP or a Unix socket (the
    test runs once per family) and return a function opening raw blocking
    sockets to it — for tests that speak frames themselves."""

    def _dial(server: NodeServer):
        if request.param == "tcp":
            serve(server)
            return lambda: socket.create_connection(server.tcp_address)
        path = str(tmp_path / "node.sock")
        serve(server, host=None, uds=path)

        def _connect():
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            return sock

        return _connect

    return _dial


@pytest.fixture
def read_replies():
    """Function: read reply payloads off a raw socket, ``count`` of them or
    (``count=None``) all there are until the server closes the link.

    The replies on one socket are one deflate stream, so every call on a
    socket reads on with that socket's one :class:`~repro.net.codec.FrameDecoder`.
    A data reply leaves out the keys its request named: ``keys`` are those
    keys (``("k",)`` for point requests on ``"k"``; a ping's reply has no
    record to give them to).
    """
    decoders: dict = {}

    def _read(sock: socket.socket, count=None, *, keys=None) -> list:
        decoder = decoders.setdefault(sock, codec.FrameDecoder())
        replies: list = []
        while count is None or len(replies) < count:
            chunk = sock.recv(256 * 1024)
            if not chunk:
                assert count is None, \
                    f"server closed after {len(replies)} of {count} replies"
                break
            replies.extend(decoder.feed(chunk, keys=keys))
        return replies

    return _read
