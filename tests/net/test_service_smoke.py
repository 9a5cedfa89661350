"""Service smoke: a seeded op stream through ``serve`` + ``connect``.

The facts the service's CI smoke checks, pinned on an in-process
:class:`~repro.net.server.ServerThread`: a 200-op stream (80/20
retrieve/insert over 16 keys, every 10th op a 4-key batch) runs without a
:class:`~repro.net.client.TransportError` over TCP and over a Unix socket,
costs exactly one request per op and puts bytes on the wire; a delta-sync
round after it ships nothing; and two clients driving one server from their
own threads both finish clean before the server stops.  CI re-runs
``tests/net`` under ``-X dev -W error::ResourceWarning``, so a socket either
side leaves open fails these tests there too.
"""

from __future__ import annotations

import random
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.replication import ReplicaSyncReport
from repro.dht.registry import OVERLAYS
from repro.net.client import connect
from repro.net.server import NodeServer, ServerThread

OPS = 200
KEYS = 16
READ_FRACTION = 0.8
BATCH_EVERY = 10
BATCH_SIZE = 4
SEED = 2007


def op_stream(seed=SEED):
    """The seeded ``(op, payload)`` stream: singles, and a batch every 10th op."""
    rng = random.Random(seed)
    ops = []
    for index in range(OPS):
        read = rng.random() < READ_FRACTION
        if index % BATCH_EVERY == BATCH_EVERY - 1:
            keys = [f"k{rng.randrange(KEYS)}" for _ in range(BATCH_SIZE)]
            ops.append(("retrieve_many", keys) if read else
                       ("insert_many", [(key, {"op": index}) for key in keys]))
        else:
            key = f"k{rng.randrange(KEYS)}"
            ops.append(("retrieve", key) if read else
                       ("insert", (key, {"op": index})))
    return ops


def replay(cluster, ops):
    """Drive ``ops`` through one session; return the run's counter deltas.

    A :class:`TransportError` propagates, so any transport-level error
    fails the calling test.
    """
    before = cluster.client.counters.as_dict()
    with cluster.session() as session:
        for op, payload in ops:
            if op == "insert":
                session.insert(*payload)
            elif op == "retrieve":
                session.retrieve(payload)
            elif op == "insert_many":
                session.insert_many(payload)
            else:
                session.retrieve_many(payload)
    after = cluster.client.counters.as_dict()
    return {name: after[name] - before[name] for name in after}


def smoke_server(protocol="chord"):
    return NodeServer(peers=64, replicas=10, seed=SEED, protocol=protocol)


def served_address(serve, server, family, tmp_path):
    """Serve ``server`` over ``family`` (``"tcp"``/``"uds"``); its address."""
    if family == "tcp":
        return serve(server).tcp_address
    path = str(tmp_path / "node.sock")
    serve(server, host=None, uds=path)
    return path


def test_the_stream_has_the_shape_it_promises():
    ops = op_stream()
    assert len(ops) == OPS
    assert op_stream() == ops and op_stream(SEED + 1) != ops
    batches = [index for index, (op, _payload) in enumerate(ops)
               if op.endswith("_many")]
    assert batches == list(range(BATCH_EVERY - 1, OPS, BATCH_EVERY))
    keys = set()
    for op, payload in ops:
        if op == "retrieve":
            keys.add(payload)
        elif op == "insert":
            keys.add(payload[0])
        elif op == "retrieve_many":
            assert len(payload) == BATCH_SIZE
            keys.update(payload)
        else:
            assert len(payload) == BATCH_SIZE
            keys.update(key for key, _data in payload)
    assert keys <= {f"k{index}" for index in range(KEYS)}
    reads = sum(op.startswith("retrieve") for op, _payload in ops)
    assert 0.7 * OPS < reads < 0.9 * OPS


@pytest.mark.parametrize("family", ["tcp", "uds"])
@pytest.mark.parametrize("protocol", sorted(OVERLAYS))
def test_a_stream_is_one_request_per_op_with_bytes_on_the_wire(
        protocol, family, serve, tmp_path):
    address = served_address(serve, smoke_server(protocol), family, tmp_path)
    with connect(address) as cluster:
        assert cluster.size == 64
        run = replay(cluster, op_stream())
    assert run["requests"] == OPS, run
    assert run["bytes_sent"] + run["bytes_received"] > 0, run
    # One wire format since 3.0.0: the counters name no format.
    assert set(run) == {"requests", "retries", "timeouts", "reconnects",
                        "bytes_sent", "bytes_received"}


def test_the_secondary_service_stream_is_one_request_per_op(serve):
    server = serve(smoke_server())
    with connect(server.tcp_address) as cluster:
        assert cluster.service_name == "ums"
        before = cluster.client.counters.requests
        with cluster.session(service="brk") as session:
            for op, payload in op_stream():
                if op == "insert":
                    session.insert(*payload)
                elif op == "retrieve":
                    session.retrieve(payload)
                elif op == "insert_many":
                    session.insert_many(payload)
                else:
                    session.retrieve_many(payload)
        assert cluster.client.counters.requests - before == OPS


@pytest.mark.parametrize("protocol", sorted(OVERLAYS))
def test_a_sync_round_after_the_stream_ships_nothing(protocol, serve):
    server = serve(smoke_server(protocol))
    with connect(server.tcp_address) as cluster:
        replay(cluster, op_stream())
        report = cluster.sync_replicas()
    assert isinstance(report, ReplicaSyncReport)
    assert report.entries_shipped == 0, report
    assert report.transfer_ratio < 1.0, report


def test_the_sync_report_rebuilds_every_wire_field(serve):
    server = serve(smoke_server())
    with connect(server.tcp_address) as cluster:
        replay(cluster, op_stream())
        wire, _stats = cluster.client.request("sync")
        report = cluster.sync_replicas()
    # Both rounds follow the same stream with nothing written in between,
    # so the rebuilt report snapshots to exactly what the wire carried.
    assert report.to_dict() == wire
    written = set()
    for op, payload in op_stream():
        if op == "insert":
            written.add(payload[0])
        elif op == "insert_many":
            written.update(key for key, _data in payload)
    assert report.keys == len(written), report
    assert report.replica_slots == 10 * len(written), report


@pytest.mark.parametrize("family", ["tcp", "uds"])
def test_two_clients_on_one_server_finish_clean_and_it_stops(family,
                                                             tmp_path):
    if family == "tcp":
        thread = ServerThread(smoke_server()).start()
        address = thread.server.tcp_address

        def dial():
            return socket.create_connection(address, timeout=1.0)
    else:
        address = str(tmp_path / "node.sock")
        thread = ServerThread(smoke_server(), host=None, uds=address).start()

        def dial():
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(address)
            finally:
                sock.close()
            return sock
    server = thread.server
    clusters = [connect(address) for _ in range(2)]
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(replay, clusters, [op_stream()] * 2))
    finally:
        for cluster in clusters:
            cluster.close()
        thread.stop()
    assert [run["requests"] for run in runs] == [OPS, OPS], runs
    # Every request was answered: two handshakes plus both streams.
    assert server.requests_served == 2 + 2 * OPS
    with pytest.raises(ConnectionRefusedError):
        dial().close()
