"""Backend parity: the sim substrate and the repro.net transport agree.

The acceptance contract of service mode: the *same* ``Session`` workload —
mixed single/batched inserts and retrieves — produces **value-identical**
results whether the cluster runs in-process (``Cluster.build``) or behind
the asyncio transport (``repro serve`` + ``connect``), for every registered
overlay.  Both substrates are built by the same ``Cluster.build`` path with
the same seed, and the server executes requests in strict arrival order, so
the server-side RNG stream matches the in-process run operation for
operation: timestamps, payloads, currency flags and per-op trace summaries
(message count, byte total, timeouts) must all be equal.
"""

from __future__ import annotations

import random

import pytest

from repro.api.cluster import Cluster
from repro.dht.registry import OVERLAYS
from repro.net.client import connect
from repro.net.server import NodeServer, ServerThread

BUILD = dict(peers=24, replicas=5, seed=2007)

#: The mixed workload: singles and batches, writes and reads, re-writes
#: (version bumps) and a miss.
WORKLOAD = [
    ("insert", ("alpha", {"v": 1})),
    ("insert", ("beta", {"v": 2})),
    ("retrieve", "alpha"),
    ("insert_many", [("gamma", {"v": 3}), ("delta", {"v": 4})]),
    ("retrieve_many", ["alpha", "beta", "gamma"]),
    ("insert", ("alpha", {"v": 10})),
    ("retrieve", "alpha"),
    ("retrieve", "missing"),
    ("retrieve_many", ["delta", "missing"]),
]


def run_workload(session):
    """Replay the canonical workload, returning the result list."""
    results = []
    for op, payload in WORKLOAD:
        if op == "insert":
            results.append(session.insert(payload[0], payload[1]))
        elif op == "retrieve":
            results.append(session.retrieve(payload))
        elif op == "insert_many":
            results.append(session.insert_many(payload))
        else:
            results.append(session.retrieve_many(payload))
    return results


def assert_results_identical(expected, actual):
    """Field-by-field value identity for single and batched results."""
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        if hasattr(want, "results"):  # batched: compare element-wise
            assert len(want.results) == len(got.results)
            assert want.trace == got.trace
            for item_want, item_got in zip(want.results, got.results):
                assert_single_identical(item_want, item_got)
                assert item_got.trace is got.trace
            continue
        assert want.trace == got.trace
        assert_single_identical(want, got)


def assert_single_identical(want, got):
    assert got.key == want.key
    assert got.timestamp == want.timestamp
    assert got.version == want.version
    assert got.service == want.service
    if hasattr(want, "data"):  # retrieve
        assert got.data == want.data
        assert got.found == want.found
        assert got.is_current == want.is_current
        assert got.latest_timestamp == want.latest_timestamp
        assert got.replicas_inspected == want.replicas_inspected
        assert got.ambiguous == want.ambiguous
    else:  # insert
        assert got.replicas_written == want.replicas_written
        assert got.replicas_attempted == want.replicas_attempted


@pytest.mark.parametrize("protocol", sorted(OVERLAYS))
def test_sim_and_tcp_backends_are_value_identical(protocol):
    sim = Cluster.build(protocol=protocol, **BUILD)
    with sim.session() as session:
        expected = run_workload(session)
        expected_messages = session.messages_sent

    server = NodeServer(protocol=protocol, **BUILD)
    with ServerThread(server) as thread:
        with connect(thread.server.tcp_address) as remote:
            with remote.session() as session:
                actual = run_workload(session)
                actual_messages = session.messages_sent

    assert_results_identical(expected, actual)
    assert actual_messages == expected_messages


def run_seeded_stream(session, seed=2007, ops=120, keys=16):
    """An 80/20 retrieve/insert stream over ``keys`` keys, drawn from ``seed``."""
    rng = random.Random(seed)
    for index in range(ops):
        key = f"k{rng.randrange(keys)}"
        if rng.random() < 0.8:
            session.retrieve(key)
        else:
            session.insert(key, {"op": index})


def drop_first_replica(cluster, key):
    """Delete ``key``'s replica under the first hash, so a sync re-ships it."""
    hash_fn = cluster.replication.hashes[0]
    holder = cluster.network.responsible_peer(key, hash_fn)
    cluster.network.peer(holder).store.delete(hash_fn.name, key)


@pytest.mark.parametrize("keys", [None, ["k0", "k5"]], ids=["all", "subset"])
@pytest.mark.parametrize("protocol", sorted(OVERLAYS))
def test_sim_and_tcp_sync_rounds_report_the_same(protocol, keys):
    build = dict(protocol=protocol, peers=64, replicas=10, seed=2007)
    sim = Cluster.build(**build)
    with sim.session() as session:
        run_seeded_stream(session)
    drop_first_replica(sim, "k0")
    expected = sim.sync_replicas(keys)

    with ServerThread(NodeServer(**build)) as thread:
        with connect(thread.server.tcp_address) as remote:
            with remote.session() as session:
                run_seeded_stream(session)
            # Every reply is in, so the server's loop is idle.
            drop_first_replica(thread.server.cluster, "k0")
            actual = remote.sync_replicas(keys)

    assert actual == expected
    assert expected.entries_shipped > 0 and expected.entries_skipped > 0
    if keys is not None:
        assert expected.keys == len(keys)


def test_both_services_agree_across_backends():
    """The secondary (BRK) service is value-identical over the wire too."""
    sim = Cluster.build(**BUILD)
    with sim.session(service="brk") as session:
        expected = run_workload(session)

    with ServerThread(NodeServer(**BUILD)) as thread:
        with connect(thread.server.tcp_address) as remote:
            with remote.session(service="brk") as session:
                actual = run_workload(session)

    assert_results_identical(expected, actual)


def test_consistency_levels_survive_the_wire():
    sim = Cluster.build(**BUILD)
    with sim.session(consistency="best-effort") as session:
        session.insert("k", {"v": 1})
        expected = session.retrieve("k")

    with ServerThread(NodeServer(**BUILD)) as thread:
        with connect(thread.server.tcp_address) as remote:
            with remote.session(consistency="best-effort") as session:
                session.insert("k", {"v": 1})
                actual = session.retrieve("k")

    assert actual.consistency == expected.consistency == "best-effort"
    assert_single_identical(expected, actual)
    assert actual.trace == expected.trace
