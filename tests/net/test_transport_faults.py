"""Timeout/retry accounting under injected transport faults (repro.net).

The contract under test: the net client's bounded retries must land in the
**same accounting** the simulator uses for routing retries — one timed-out
``LOOKUP_RETRY`` message per retry added to the result's trace summary,
exactly the counts and bytes :meth:`OperationTrace.record_route(retries=k,
timeouts=k)` adds to a trace — so ``Session.messages_sent`` and the
transport counters stay comparable across backends for a known fault
schedule.

Fault-index semantics (see :class:`FaultSchedule`): indices count *executed*
data-plane requests, retried executions included.  Dropping a reply does not
undo the execution (at-least-once), so after the first drop the server-side
RNG stream diverges from a fault-free run — drop tests therefore assert
accounting parity, while *delay-only* schedules (no re-execution) preserve
full value parity with the in-process backend.
"""

from __future__ import annotations

import asyncio
import select
import socket
import struct
import time

import pytest

from repro.api.cluster import Cluster
from repro.dht.messages import OperationTrace, TraceSummary
from repro.net import codec
from repro.net.client import RequestTimeout, connect
from repro.net.server import FaultSchedule, NodeServer

#: Fast transport knobs so a dropped reply costs ~0.2s, not the 5s default.
FAST = dict(timeout_s=0.2, max_retries=2)


class Recording(NodeServer):
    """A server that keeps the summary of every data-op result it executes,
    in execution order — dropped replies' included."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.summaries: list = []

    def handle_request(self, request):
        reply = super().handle_request(request)
        trace = getattr(reply.get("result"), "trace", None)
        if trace is not None:
            self.summaries.append(trace.summary())
        return reply


def with_retries(summary: TraceSummary, retries: int) -> TraceSummary:
    """``summary`` plus what the simulator records for ``retries`` timed-out
    routing retries: ``record_route([], retries=r, timeouts=r)``."""
    reference = OperationTrace()
    reference.record_route([], retries=retries, timeouts=retries)
    added = reference.summary()
    return TraceSummary(summary.message_count + added.message_count,
                        summary.total_bytes + added.total_bytes,
                        summary.timeout_count + added.timeout_count,
                        summary.retry_bytes)


class TestDroppedReplies:
    def test_single_drop_is_one_retry_one_timeout(self, serve):
        # Data-plane execution index 0 is dropped; the retry (index 1) lands.
        server = serve(Recording(peers=16, replicas=4, seed=11,
                                 fault_schedule=FaultSchedule(
                                     drop_replies={0})))
        with connect(server.tcp_address, **FAST) as cluster:
            with cluster.session() as session:
                result = session.insert("k", {"v": 1})
            counters = cluster.client.counters
        assert counters.timeouts == 1
        assert counters.retries == 1
        assert counters.reconnects == 1
        # The retry shows up in the result's summary under the simulator's
        # convention: a LOOKUP_RETRY message flagged timed out.
        _dropped, delivered = server.summaries
        assert result.trace == with_retries(delivered, 1)
        assert result.trace.timeout_count == delivered.timeout_count + 1
        # At-least-once: both executions ran on the server.
        assert server.fault_schedule._sequence == 2

    def test_multi_drop_schedule_accounts_every_retry(self, serve):
        # Executed-request indices: op0 -> 0 (ok), op1 -> 1 (dropped),
        # retry of op1 -> 2 (ok), op2 -> 3 (dropped), retry -> 4 (ok).
        server = serve(Recording(peers=16, replicas=4, seed=11,
                                 fault_schedule=FaultSchedule(
                                     drop_replies={1, 3})))
        with connect(server.tcp_address, **FAST) as cluster:
            with cluster.session() as session:
                results = [session.insert(f"k{index}", {"op": index})
                           for index in range(3)]
            counters = cluster.client.counters
        assert counters.timeouts == 2
        assert counters.retries == 2
        # Delivered: executions 0, 2 and 4, the last two after one retry.
        delivered = server.summaries[::2]
        assert [result.trace for result in results] == [
            with_retries(summary, retries)
            for summary, retries in zip(delivered, (0, 1, 1))]
        # The retried operations still completed and are readable.
        with connect(server.tcp_address, **FAST) as cluster:
            with cluster.session() as session:
                for index in range(3):
                    assert session.retrieve(f"k{index}").data == {"op": index}

    def test_retries_count_into_session_accounting(self, serve):
        """Session totals include the transport retries, trace-accounted."""
        server = serve(Recording(peers=16, replicas=4, seed=11,
                                 fault_schedule=FaultSchedule(
                                     drop_replies={0})))
        with connect(server.tcp_address, **FAST) as cluster:
            with cluster.session() as session:
                result = session.insert("k", {"v": 1})
                # The session counts exactly what the summary counts — the
                # transport retry included, not tallied anywhere on the side.
                assert session.messages_sent == result.trace.message_count
            retries = cluster.client.counters.retries
            assert retries == 1
            assert result.trace == with_retries(server.summaries[-1], retries)

    def test_exhausted_retries_raise_request_timeout(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11,
                                  fault_schedule=FaultSchedule(
                                      drop_replies={0, 1, 2})))
        with connect(server.tcp_address, timeout_s=0.15,
                     max_retries=2) as cluster:
            with cluster.session() as session:
                with pytest.raises(RequestTimeout, match="3 attempts"):
                    session.insert("k", {"v": 1})
            assert cluster.client.counters.timeouts == 3
            # retries <= timeouts: the final attempt raises instead.
            assert cluster.client.counters.retries == 2

    def test_zero_retries_fail_on_first_drop(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11,
                                  fault_schedule=FaultSchedule(
                                      drop_replies={0})))
        with connect(server.tcp_address, timeout_s=0.15,
                     max_retries=0) as cluster:
            with cluster.session() as session:
                with pytest.raises(RequestTimeout):
                    session.insert("k", {"v": 1})
            assert cluster.client.counters.timeouts == 1
            assert cluster.client.counters.retries == 0


class TestDelayedReplies:
    def test_delay_only_schedule_preserves_value_parity_with_sim(self, serve):
        """A slow reply is *not* a fault: no retries, identical results."""
        seed, build = 11, dict(peers=16, replicas=4)
        operations = [("insert", "a", {"v": 1}), ("insert", "b", {"v": 2}),
                      ("retrieve", "a", None), ("retrieve", "b", None)]

        sim = Cluster.build(seed=seed, **build)
        with sim.session() as session:
            expected = [session.insert(key, data) if op == "insert"
                        else session.retrieve(key)
                        for op, key, data in operations]
            expected_messages = session.messages_sent

        server = serve(NodeServer(seed=seed, fault_schedule=FaultSchedule(
            delay_replies={0: 0.05, 2: 0.08}), **build))
        with connect(server.tcp_address, timeout_s=5.0) as cluster:
            with cluster.session() as session:
                actual = [session.insert(key, data) if op == "insert"
                          else session.retrieve(key)
                          for op, key, data in operations]
                actual_messages = session.messages_sent
            assert cluster.client.counters.timeouts == 0
            assert cluster.client.counters.retries == 0

        for want, got in zip(expected, actual):
            assert got.timestamp == want.timestamp
            assert got.trace == want.trace.summary()
            if hasattr(want, "data"):
                assert got.data == want.data
                assert got.is_current == want.is_current
        assert actual_messages == expected_messages


    def test_a_delayed_reply_holds_its_line_and_only_its_line(
            self, dial, read_replies):
        """The request behind a delayed reply does not overtake it, and the
        loop goes on serving a second connection while the first one waits."""
        delay = 0.8
        server = NodeServer(peers=16, replicas=4, seed=11,
                            fault_schedule=FaultSchedule(
                                delay_replies={0: delay}))
        connect_raw = dial(server)
        with connect_raw() as held, connect_raw() as other:
            started = time.monotonic()
            held.sendall(
                codec.encode_frame({"id": 0, "op": "insert", "key": "k",
                                    "data": {"v": 1}})
                + codec.encode_frame({"id": 1, "op": "ping"}))
            for index in range(5):
                other.sendall(codec.encode_frame({"id": index, "op": "ping"}))
                assert read_replies(other, 1)[0]["id"] == index
            # The second connection was served inside the delay, during which
            # the first got nothing -- not even the ping's undelayed reply.
            assert time.monotonic() - started < delay
            assert select.select([held], [], [], 0)[0] == []
            replies = read_replies(held, 2, keys=("k",))
            assert time.monotonic() - started >= delay
        assert [reply["id"] for reply in replies] == [0, 1]
        assert replies[1]["result"] == "pong"

    def test_stop_waits_for_a_held_backlog(self, dial, read_replies):
        """``stop()`` finds a connection whose line a delayed reply holds: the
        delayed reply and the requests queued behind it still go out, in
        order, before the link closes."""
        server = NodeServer(peers=16, replicas=4, seed=11,
                            fault_schedule=FaultSchedule(
                                delay_replies={0: 0.3}))
        connect_raw = dial(server)
        with connect_raw() as held, connect_raw() as other:
            held.sendall(
                codec.encode_frame({"id": 0, "op": "insert", "key": "k",
                                    "data": {"v": 1}})
                + b"".join(codec.encode_frame({"id": index, "op": "ping"})
                           for index in (1, 2, 3)))
            deadline = time.monotonic() + 5
            while not server.requests_served:  # the insert ran: line is held
                assert time.monotonic() < deadline
                time.sleep(0.01)
            other.sendall(codec.encode_frame({"id": 9, "op": "shutdown"}))
            assert [reply["result"] for reply in read_replies(other)] == \
                ["stopping"]
            assert [reply["id"] for reply in read_replies(held, keys=("k",))] \
                == [0, 1, 2, 3]
        assert server.requests_served == 5

    @pytest.mark.parametrize("family", ["tcp", "uds"])
    def test_a_reset_mid_backlog_leaves_nothing_behind(self, family, tmp_path):
        """The client vanishes while a delayed reply holds fifty requests in
        the backlog: they are dropped with the link, the timer is cancelled,
        and no task, transport or un-retrieved exception outlives it."""
        delay, loop_errors = 0.3, []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: loop_errors.append(context))
            server = NodeServer(peers=16, replicas=4, seed=11,
                                fault_schedule=FaultSchedule(
                                    delay_replies={0: delay}))
            if family == "tcp":
                await server.start()
                raw = socket.create_connection(server.tcp_address)
            else:
                path = str(tmp_path / "node.sock")
                await server.start(host=None, uds=path)
                raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                raw.connect(path)
            raw.sendall(
                codec.encode_frame({"id": 0, "op": "insert", "key": "k",
                                    "data": {"v": 1}})
                + b"".join(codec.encode_frame({"id": index, "op": "ping"})
                           for index in range(1, 51)))
            await asyncio.sleep(0.1)
            (connection,) = server._connections
            assert len(connection._backlog) == 50
            assert connection._delayed is not None
            # Close with a reset, not a FIN (SO_LINGER 0); a Unix socket has
            # no reset, the server sees the link go as it writes.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
            raw.close()
            await asyncio.sleep(delay + 0.2)
            assert not server._connections
            assert not connection._backlog
            assert connection._delayed is None
            assert connection._transport.is_closing()
            if family == "tcp":
                assert server.requests_served == 1
            await server.stop()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())
        assert loop_errors == []


class TestFaultSchedule:
    def test_indices_count_only_data_plane_requests(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11,
                                  fault_schedule=FaultSchedule(
                                      drop_replies={0})))
        with connect(server.tcp_address, **FAST) as cluster:
            # info (handshake) and ping are control requests: never faulted,
            # and they must not consume fault indices.
            assert cluster.ping()
            assert cluster.client.counters.timeouts == 0
            with cluster.session() as session:
                session.insert("k", {"v": 1})  # index 0: dropped, retried
            assert cluster.client.counters.timeouts == 1

    def test_schedule_accessors(self):
        schedule = FaultSchedule(drop_replies=(2,), delay_replies={5: 0.5})
        assert [schedule.next_index() for _ in range(3)] == [0, 1, 2]
        assert not schedule.should_drop(1)
        assert schedule.should_drop(2)
        assert schedule.delay_for(5) == 0.5
        assert schedule.delay_for(0) == 0.0
