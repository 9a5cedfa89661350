"""Tests of the asyncio node server and the client transport."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.api.cluster import Cluster
from repro.net import codec
from repro.net.client import NetClient, TransportError, connect
from repro.net.server import NodeServer, ServerThread


class TestServerBasics:
    def test_connect_handshake_and_ping(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            assert cluster.ping()
            assert cluster.size == 16
            assert cluster.info["replicas"] == 4
            assert cluster.info["service"] == "ums"

    def test_session_operations_over_tcp(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                insert = session.insert("k", {"v": 1})
                assert insert.replicas_written == 4
                assert insert.timestamp is not None
                retrieve = session.retrieve("k")
                assert retrieve.found and retrieve.is_current
                assert retrieve.data == {"v": 1}
                assert retrieve.timestamp == insert.timestamp
                assert session.messages_sent > 0

    def test_batched_operations_share_one_trace(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                batch = session.insert_many([("a", {"n": 1}), ("b", {"n": 2})])
                assert all(item.trace is batch.trace
                           for item in batch.results)
                reads = session.retrieve_many(["a", "b", "missing"])
                assert [item.found for item in reads.results] == \
                    [True, True, False]
                assert all(item.trace is reads.trace
                           for item in reads.results)

    def test_operations_over_unix_socket(self, serve, tmp_path):
        path = str(tmp_path / "node.sock")
        server = serve(NodeServer(peers=16, replicas=4, seed=11),
                       host=None, uds=path)
        assert server.tcp_address is None
        assert server.uds_path == path
        with connect(path) as cluster:
            with cluster.session() as session:
                session.insert("k", {"via": "uds"})
                assert session.retrieve("k").data == {"via": "uds"}

    def test_secondary_service_is_reachable_by_name(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session(service="brk") as session:
                session.insert("k", {"v": 1})
                result = session.retrieve("k")
                assert result.found
                assert result.service == "brk"

    def test_server_reports_errors_instead_of_dying(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with pytest.raises(TransportError, match="unknown service"):
                cluster.client.request("insert", key="k", data={},
                                       service="paxos")
            # The connection survived the error reply.
            assert cluster.ping()

    def test_unknown_operation_is_an_error_reply(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with pytest.raises(TransportError, match="unknown operation"):
                cluster.client.request("teleport")

    def test_served_cluster_can_be_prebuilt(self, serve):
        cluster = Cluster.build(peers=12, replicas=3, protocol="kademlia",
                                seed=3)
        server = serve(NodeServer(cluster))
        with connect(server.tcp_address) as remote:
            assert remote.size == 12
            assert remote.info["protocol"] == "KademliaOverlay"


class TestBackpressure:
    def test_inflight_queue_stays_bounded_under_flood(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11,
                                  max_inflight=4))
        host, port = server.tcp_address
        requests = 40
        with socket.create_connection((host, port)) as raw:
            # Flood the socket with every frame up front, then read replies.
            flood = b"".join(
                codec.encode_frame({"id": index, "op": "ping"})
                for index in range(requests))
            raw.sendall(flood)
            decoder = codec.FrameDecoder()
            replies = []
            while len(replies) < requests:
                chunk = raw.recv(64 * 1024)
                assert chunk, "server closed before replying to the flood"
                replies.extend(decoder.feed(chunk))
        # Strict in-order execution, every request answered...
        assert [reply["id"] for reply in replies] == list(range(requests))
        assert all(reply["ok"] for reply in replies)
        # ... and the server never buffered more than the configured bound.
        assert 0 < server.max_observed_inflight <= 4

    def test_a_client_that_never_reads_stalls_execution_not_memory(
            self, dial, read_replies):
        """Replies nobody reads stop the *execution*: once the transport
        says ``pause_writing`` nothing more runs, so neither the write buffer
        nor the backlog grows with what the client keeps sending."""
        requests, blob = 1500, "x" * 16384
        server = NodeServer(peers=16, replicas=4, seed=11, max_inflight=4)
        with dial(server)() as raw:
            raw.sendall(codec.encode_frame(
                {"id": -1, "op": "insert", "key": "k", "data": blob}))
            assert read_replies(raw, 1)[0]["ok"]
            flood = b"".join(
                codec.encode_frame({"id": index, "op": "retrieve", "key": "k"})
                for index in range(requests))
            # ~25 MB of replies against a few MB of socket buffers; the
            # requests go out from a thread because the server stops reading.
            sender = threading.Thread(target=raw.sendall, args=(flood,))
            sender.start()
            served = _wait_until_stalled(server)
            assert 1 < served < requests
            (connection,) = server._connections
            transport = connection._transport
            _low, high = transport.get_write_buffer_limits()
            one_reply = len(blob) + 1024
            assert high < transport.get_write_buffer_size() <= high + one_reply
            assert not transport.is_reading()
            assert server.max_inflight <= len(connection._backlog)
            # Once the client reads, everything is delivered, in order.
            replies = read_replies(raw, requests)
            sender.join(timeout=10)
            assert not sender.is_alive()
        assert [reply["id"] for reply in replies] == list(range(requests))
        assert all(reply["result"]["data"] == blob for reply in replies)
        assert server.requests_served == requests + 1

    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ValueError, match="max_inflight"):
            NodeServer(peers=8, seed=1, max_inflight=0)


def _wait_until_stalled(server: NodeServer, quiet_s: float = 0.3) -> int:
    """Block until ``requests_served`` stops moving; return where it stopped."""
    served, since = server.requests_served, time.monotonic()
    while time.monotonic() - since < quiet_s:
        time.sleep(0.02)
        if server.requests_served != served:
            served, since = server.requests_served, time.monotonic()
    return served


class TestMalformedRequests:
    @pytest.mark.parametrize("garbage", [
        struct.pack(">I", 5) + b"\x05junk",      # no such body marker
        struct.pack(">I", 3) + b"\x01d\x00",     # truncated binary body
        struct.pack(">I", codec.MAX_FRAME_BYTES + 1),
    ], ids=["marker", "truncated", "oversize"])
    def test_requests_ahead_of_a_malformed_frame_are_answered(
            self, dial, read_replies, garbage):
        """One ``sendall`` of [ping, garbage, ping]: the first ping is
        answered, then the link is closed -- nothing behind the garbage runs."""
        server = NodeServer(peers=16, replicas=4, seed=11)
        with dial(server)() as raw:
            raw.sendall(codec.encode_frame({"id": 1, "op": "ping"}) + garbage
                        + codec.encode_frame({"id": 2, "op": "ping"}))
            assert read_replies(raw) == [{"id": 1, "ok": True,
                                         "result": "pong"}]
        assert server.requests_served == 1

    def test_a_malformed_first_frame_just_closes_the_link(self, dial,
                                                          read_replies):
        server = NodeServer(peers=16, replicas=4, seed=11)
        with dial(server)() as raw:
            raw.sendall(struct.pack(">I", 2) + b"{]"
                        + codec.encode_frame({"id": 2, "op": "ping"}))
            assert read_replies(raw) == []
        assert server.requests_served == 0


class TestShutdown:
    def test_shutdown_answers_everything_read_before_closing(self, dial,
                                                             read_replies):
        """[ping x5, shutdown, ping x3] in one chunk: nine replies, then EOF."""
        ops = ["ping"] * 5 + ["shutdown"] + ["ping"] * 3
        server = NodeServer(peers=16, replicas=4, seed=11)
        with dial(server)() as raw:
            raw.sendall(b"".join(codec.encode_frame({"id": index, "op": op})
                                 for index, op in enumerate(ops)))
            replies = read_replies(raw)
        assert [reply["id"] for reply in replies] == list(range(len(ops)))
        assert [reply["result"] for reply in replies] == \
            ["pong"] * 5 + ["stopping"] + ["pong"] * 3
        assert server.requests_served == len(ops)

    def test_a_half_closing_client_still_gets_its_answers(self, dial,
                                                          read_replies):
        server = NodeServer(peers=16, replicas=4, seed=11)
        with dial(server)() as raw:
            raw.sendall(b"".join(codec.encode_frame({"id": index, "op": "ping"})
                                 for index in range(3)))
            raw.shutdown(socket.SHUT_WR)
            assert [reply["id"] for reply in read_replies(raw)] == [0, 1, 2]

    def test_client_initiated_graceful_shutdown(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                session.insert("k", {"v": 1})
            cluster.shutdown_server()
        assert server.requests_served >= 3  # info + insert + shutdown

    def test_server_thread_stop_is_idempotent(self):
        thread = ServerThread(NodeServer(peers=8, replicas=3, seed=1))
        thread.start()
        thread.stop()
        thread.stop()

    def test_startup_failure_propagates_to_the_caller(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "node.sock"
        thread = ServerThread(NodeServer(peers=8, replicas=3, seed=1),
                              host=None, uds=str(missing))
        with pytest.raises(OSError):
            thread.start()


class TestClientValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="pool_size"):
            NetClient(("127.0.0.1", 1), pool_size=0)
        with pytest.raises(ValueError, match="max_retries"):
            NetClient(("127.0.0.1", 1), max_retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            NetClient(("127.0.0.1", 1), timeout_s=0)

    def test_connecting_to_a_dead_address_fails_fast(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
        with pytest.raises(TransportError, match="cannot connect"):
            connect(dead_address)

    def test_requests_after_close_are_rejected(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        cluster = connect(server.tcp_address)
        cluster.close()
        assert cluster.client.closed
        with pytest.raises(TransportError, match="closed"):
            cluster.ping()
