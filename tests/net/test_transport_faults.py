"""Timeout/retry accounting under link faults, on a simulated clock (repro.net).

The contract under test: the net client's bounded retries must land in the
**same accounting** the simulator uses for routing retries — one timed-out
``LOOKUP_RETRY`` message per retry added to the result's trace summary,
exactly the counts and bytes :meth:`TraceSummary.record_route(retries=k,
timeouts=k)` adds to a trace the simulator records — so ``Session.messages_sent`` and the
transport counters stay comparable across backends for a known fault plan.

Every test here talks to a real :class:`NodeServer` connection through the
in-memory link of ``tests/net/memory_link.py``: each is seeded, runs on a
:class:`~repro.simulation.engine.Simulator` clock and reads no wall clock.
Fault indices count the replies the server writes through one net's links,
the handshake's ``info`` reply first (index 0) and retried executions
included.  Dropping a reply does not undo the execution (at-least-once), so
after the first drop the server-side RNG stream diverges from a fault-free
run — drop tests therefore assert accounting parity, while *delay-only*
plans (no re-execution) preserve full value parity with the in-process
backend.  One real-socket test per fault class stays with the socket link's
own suites (``tests/net/test_client_transport.py``,
``tests/net/test_server_client.py``).
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from net.memory_link import MemoryNet

from repro.api.cluster import Cluster
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.net import codec
from repro.net.client import RequestTimeout, TransportError
from repro.net.server import NodeServer

#: Fast transport knobs: a lost reply costs 0.2 simulated seconds.
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
            self.summaries.append(trace)
        return reply


def with_retries(summary: TraceSummary, retries: int) -> TraceSummary:
    """``summary`` plus what the simulator records for ``retries`` timed-out
    routing retries: ``record_route([], retries=r, timeouts=r)``."""
    added = TraceSummary(0, 0, 0, MessageSizes().size_of(MessageKind.LOOKUP_RETRY))
    added.record_route([], retries=retries, timeouts=retries)
    return TraceSummary(summary.message_count + added.message_count,
                        summary.total_bytes + added.total_bytes,
                        summary.timeout_count + added.timeout_count,
                        summary.retry_bytes)


def frames(*payloads) -> bytes:
    """``payloads`` as consecutive frames of one fresh request stream."""
    stream = codec.DeflateStream()
    return b"".join(codec.encode_frame(payload, stream=stream)
                    for payload in payloads)


def insert(request_id: int) -> dict:
    return {"id": request_id, "op": "insert", "key": "k", "data": {"v": 1}}


def ping(request_id: int) -> dict:
    return {"id": request_id, "op": "ping"}


class TestDroppedReplies:
    def test_single_drop_is_one_retry_one_timeout(self):
        # The insert's first reply (index 1) is dropped; the retry lands.
        server = Recording(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, drop={1})
        with net.connect(**FAST) as cluster:
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
        assert len(server.summaries) == 2
        # Handshake, the lost attempt's deadline, the retry's round trip.
        assert net.sim.now == pytest.approx(0.01 + 0.2 + 0.01)

    def test_multi_drop_schedule_accounts_every_retry(self):
        # Replies: info 0, op0 1 (ok), op1 2 (dropped), its retry 3 (ok),
        # op2 4 (dropped), its retry 5 (ok).
        server = Recording(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, drop={2, 4})
        with net.connect(**FAST) as cluster:
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
        with net.connect(**FAST) as cluster:
            with cluster.session() as session:
                for index in range(3):
                    assert session.retrieve(f"k{index}").data == {"op": index}

    def test_retries_count_into_session_accounting(self):
        """Session totals include the transport retries, trace-accounted."""
        server = Recording(peers=16, replicas=4, seed=11)
        with MemoryNet(server, drop={1}).connect(**FAST) as cluster:
            with cluster.session() as session:
                result = session.insert("k", {"v": 1})
                # The session counts exactly what the summary counts — the
                # transport retry included, not tallied anywhere on the side.
                assert session.messages_sent == result.trace.message_count
            retries = cluster.client.counters.retries
            assert retries == 1
            assert result.trace == with_retries(server.summaries[-1], retries)

    def test_exhausted_retries_raise_request_timeout(self):
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, drop={1, 2, 3})
        with net.connect(timeout_s=0.15, max_retries=2) as cluster:
            with cluster.session() as session:
                with pytest.raises(RequestTimeout, match="3 attempts"):
                    session.insert("k", {"v": 1})
            assert cluster.client.counters.timeouts == 3
            # retries <= timeouts: the final attempt raises instead.
            assert cluster.client.counters.retries == 2

    def test_zero_retries_fail_on_first_drop(self):
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, drop={1})
        with net.connect(timeout_s=0.15, max_retries=0) as cluster:
            with cluster.session() as session:
                with pytest.raises(RequestTimeout):
                    session.insert("k", {"v": 1})
            assert cluster.client.counters.timeouts == 1
            assert cluster.client.counters.retries == 0


class TestDelayedReplies:
    def test_delay_only_schedule_preserves_value_parity_with_sim(self):
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

        net = MemoryNet(NodeServer(seed=seed, **build),
                        delay={1: 0.05, 3: 0.08})
        with net.connect(timeout_s=5.0) as cluster:
            with cluster.session() as session:
                actual = [session.insert(key, data) if op == "insert"
                          else session.retrieve(key)
                          for op, key, data in operations]
                actual_messages = session.messages_sent
            assert cluster.client.counters.timeouts == 0
            assert cluster.client.counters.retries == 0

        for want, got in zip(expected, actual):
            assert got.timestamp == want.timestamp
            assert got.trace == want.trace
            if hasattr(want, "data"):
                assert got.data == want.data
                assert got.is_current == want.is_current
        assert actual_messages == expected_messages
        assert net.sim.now == pytest.approx(5 * 0.01 + 0.05 + 0.08)

    def test_a_reply_delayed_past_the_deadline_is_a_timeout(self):
        """Late is lost to the client: the attempt times out, the request
        runs again on a fresh link, and the late reply is never read."""
        server = Recording(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, delay={1: 0.5})
        with net.connect(timeout_s=0.2, max_retries=1) as cluster:
            with cluster.session() as session:
                result = session.insert("k", {"v": 1})
                assert session.retrieve("k").data == {"v": 1}
            counters = cluster.client.counters
            assert (counters.timeouts, counters.retries,
                    counters.reconnects) == (1, 1, 1)
        assert result.trace == with_retries(server.summaries[1], 1)
        net.sim.run()  # the late reply reaches a link the client closed
        late = net.links[0]
        assert late.closed and late.unread == b""
        assert not server._connections


class TestLinkFaults:
    def test_a_reset_mid_frame_fails_the_request_and_the_link(self):
        """Half the reply arrives, then the link is gone: the client reports
        a transport error (no retry: the request may have run), the slot is
        re-opened, and the server keeps nothing of the dead connection."""
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, reset={1})
        with net.connect(**FAST) as cluster:
            with cluster.session() as session:
                with pytest.raises(TransportError, match="closed the connection"):
                    session.insert("k", {"v": 1})
                assert session.retrieve("k").data == {"v": 1}
            counters = cluster.client.counters
            assert (counters.timeouts, counters.retries,
                    counters.reconnects) == (0, 0, 1)
        dead = net.links[0]
        assert 0 < len(dead.received) and dead.eof
        assert dead.transport.gone and not dead.connection._backlog
        net.sim.run()
        assert not server._connections

    def test_a_request_reset_mid_frame_runs_nothing(self):
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server)
        link = net.open()
        request = frames(insert(0))
        link.send(request[:len(request) // 2])
        link.reset()
        net.sim.run()
        assert server.requests_served == 0
        assert link.connection._decoder.pending_bytes == len(request) // 2
        assert not server._connections and link.received == b""

    @pytest.mark.parametrize("garbage", [
        codec.frame_header(5) + b"\x05junk",     # no such body marker
        codec.frame_header(6) + b"\x02junk!",    # not a deflate stream piece
    ], ids=["marker", "stream"])
    def test_requests_ahead_of_a_corrupt_frame_are_answered(self, garbage):
        """[insert, ping, ping, garbage, ping]: the three intact requests
        ahead of the garbage are answered in order, then the link closes."""
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, seed=5, jitter_s=0.01)
        link = net.open()
        stream = codec.DeflateStream()
        head = b"".join(codec.encode_frame(payload, stream=stream)
                        for payload in (insert(1), ping(2), ping(3)))
        link.send(head[:7])  # frames and garbage split across three sends
        link.send(head[7:] + garbage[:3])
        link.send(garbage[3:] + codec.encode_frame(ping(4), stream=stream))
        net.sim.run()
        replies = link.take(keys=("k",))
        assert [reply["id"] for reply in replies] == [1, 2, 3]
        assert replies[0]["result"].replicas_written == 4
        assert link.eof and server.requests_served == 3
        assert not server._connections

    def test_a_stalled_reader_stops_execution_until_it_reads(self):
        """The reader stops reading after the first reply: the transport
        calls ``pause_writing``, nothing behind it runs, and
        ``resume_writing`` drains the backlog in order."""
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, stall={0: 1.0})
        link = net.open()
        link.send(frames(insert(0), ping(1), {"id": 2, "op": "retrieve", "key": "k"},
                         ping(3)))
        net.sim.run(until=0.5)
        assert link.connection._write_paused
        assert server.requests_served == 1
        assert [request["id"] for request in link.connection._backlog] == [1, 2, 3]
        assert link.received == b""  # the stalled reply sits unread
        net.sim.run()
        assert not link.connection._write_paused
        replies = link.take(keys=("k",))
        assert [reply["id"] for reply in replies] == [0, 1, 2, 3]
        assert replies[2]["result"].data == {"v": 1}
        assert server.requests_served == 4 and not link.connection._backlog

    def test_stop_waits_for_a_held_backlog(self):
        """``stop()`` finds a connection whose line a stalled reader holds:
        the held reply and the requests queued behind it still go out, in
        order, before the link closes."""
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, stall={0: 0.3})
        held, other = net.open(), net.open()
        held.send(frames(insert(0), ping(1), ping(2), ping(3)))
        net.sim.run(until=0.1)
        assert server.requests_served == 1  # the insert ran: line is held

        async def scenario():
            reply, _bytes = other.request(
                codec.encode_frame({"id": 9, "op": "shutdown"},
                                   stream=other.stream), 5.0, None)
            assert reply["result"] == "stopping"
            # The stop task takes its first step, then the simulator delivers
            # what comes next, as a socket server's loop would.
            asyncio.get_running_loop().call_soon(net.sim.run)
            await server._shutdown_task
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())
        assert [reply["id"] for reply in held.take(keys=("k",))] == [0, 1, 2, 3]
        assert held.eof and other.eof
        assert server.requests_served == 5
        assert not server._connections

    def test_a_reset_mid_backlog_leaves_nothing_behind(self):
        """The client vanishes while a stalled reader holds fifty requests in
        the backlog: they are dropped with the link, and no task, transport
        or un-retrieved exception outlives it."""
        loop_errors = []
        server = NodeServer(peers=16, replicas=4, seed=11)
        net = MemoryNet(server, stall={0: 0.3})
        link = net.open()
        link.send(frames(insert(0), *(ping(index) for index in range(1, 51))))
        net.sim.run(until=0.1)
        (connection,) = server._connections
        assert len(connection._backlog) == 50
        assert connection._write_paused
        link.reset()

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: loop_errors.append(context))
            net.sim.run()  # the reset, then the stall's end on a dead link
            assert not server._connections
            assert not connection._backlog
            assert connection._transport.is_closing()
            assert server.requests_served == 1
            await server.stop()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(scenario())
        assert loop_errors == []


class TestDeterminism:
    def run_stream(self, seed: int):
        """A seeded op stream over two pooled links with a faulty net."""
        server = NodeServer(peers=16, replicas=4, seed=seed)
        net = MemoryNet(server, seed=seed, jitter_s=0.004,
                        drop={7}, delay={12: 0.05}, stall={20: 0.02})
        rng = random.Random(seed)
        with net.connect(pool_size=2, **FAST) as one, net.connect(**FAST) as two:
            with one.session() as first, two.session() as second:
                for index in range(40):
                    session = first if rng.random() < 0.5 else second
                    key = f"k{rng.randrange(6)}"
                    if rng.random() < 0.7:
                        session.retrieve(key)
                    else:
                        session.insert(key, {"op": index})
        net.sim.run()
        return [(bytes(link.sent), bytes(link.received)) for link in net.links]

    def test_one_seed_gives_the_same_bytes_on_every_link_twice(self):
        first, second = self.run_stream(7), self.run_stream(7)
        assert len(first) == 3  # two handshakes and the dropped reply's retry
        assert first == second
        assert all(sent and received for sent, received in first)


#: One attempt's fate: answered, lost, late inside or past the deadline,
#: or reset mid-frame.
FATES = st.sampled_from(["ok", "drop", "late", "lost-late", "reset"])


@settings(max_examples=60, deadline=None)
@given(fates=st.lists(FATES, min_size=1, max_size=12),
       max_retries=st.integers(min_value=0, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_random_fault_plans_keep_the_retry_accounting(fates, max_retries, seed):
    """Attempt ``a`` of the run writes reply ``a + 1`` (the handshake's is
    0), so a plan of fates per attempt predicts every counter and trace."""
    plan = dict(drop=set(), delay={}, reset=set())
    for attempt, fate in enumerate(fates, start=1):
        if fate == "drop":
            plan["drop"].add(attempt)
        elif fate in ("late", "lost-late"):
            plan["delay"][attempt] = 0.05 if fate == "late" else 0.5
        elif fate == "reset":
            plan["reset"].add(attempt)
    server = Recording(peers=8, replicas=3, seed=seed % 97)
    net = MemoryNet(server, seed=seed, jitter_s=0.002, **plan)
    expected = dict(timeouts=0, retries=0, reconnects=0)
    with net.connect(timeout_s=0.2, max_retries=max_retries) as cluster:
        with cluster.session() as session:
            attempt = 0
            while attempt < len(fates):
                tries, outcome = 0, None
                while outcome is None:
                    fate = fates[attempt] if attempt < len(fates) else "ok"
                    attempt, tries = attempt + 1, tries + 1
                    if fate in ("ok", "late"):
                        outcome = "ok"
                    elif fate == "reset":
                        outcome = TransportError
                        expected["reconnects"] += 1
                    else:
                        expected["timeouts"] += 1
                        expected["reconnects"] += 1
                        if tries > max_retries:
                            outcome = RequestTimeout
                        else:
                            expected["retries"] += 1
                if outcome == "ok":
                    result = session.insert(f"k{attempt}", {"a": attempt})
                    assert result.trace == with_retries(server.summaries[-1],
                                                        tries - 1)
                else:
                    with pytest.raises(outcome):
                        session.insert(f"k{attempt}", {"a": attempt})
        counters = cluster.client.counters
        assert {name: getattr(counters, name) for name in expected} == expected
    assert len(server.summaries) == attempt  # every attempt ran once
