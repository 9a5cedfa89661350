"""Micro-benchmarks of the core operations (wall-clock cost of the library itself).

These complement the figure benchmarks: the figures report *simulated* response
times, while these measure the real execution cost of the main public
operations (insert, retrieve, gen_ts, overlay routing) so regressions in the
implementation are visible.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.dht.chord import ChordRing
from repro.dht.can import CanSpace


@pytest.fixture(scope="module")
def cluster():
    built = Cluster.build(peers=256, replicas=10, seed=99)
    built.service("ums").insert("warm-key", {"body": "warm"})
    built.service("brk").insert("warm-key-brk", {"body": "warm"})
    return built


def test_ums_insert_throughput(benchmark, cluster):
    counter = iter(range(10**9))

    def insert():
        cluster.service("ums").insert(f"bench-insert-{next(counter)}", {"body": "payload"})

    benchmark(insert)


def test_ums_retrieve_throughput(benchmark, cluster):
    result = benchmark(lambda: cluster.service("ums").retrieve("warm-key"))
    assert result.is_current


def test_brk_retrieve_throughput(benchmark, cluster):
    result = benchmark(lambda: cluster.service("brk").retrieve("warm-key-brk"))
    assert result.found


def test_kts_gen_ts_throughput(benchmark, cluster):
    benchmark(lambda: cluster.kts.gen_ts("warm-key"))


def test_chord_routing_throughput(benchmark):
    ring = ChordRing(bits=32)
    rng = random.Random(3)
    for _ in range(2000):
        ring.add_node(rng.randrange(1 << 32))
    nodes = list(ring.nodes())

    def route():
        ring.route(nodes[rng.randrange(len(nodes))], rng.randrange(1 << 32))

    benchmark(route)


def test_can_routing_throughput(benchmark):
    space = CanSpace(bits=32, dimensions=2, rng=random.Random(4))
    rng = random.Random(5)
    for _ in range(200):
        node = rng.randrange(1 << 32)
        while node in space:
            node = rng.randrange(1 << 32)
        space.add_node(node)
    nodes = list(space.nodes())

    def route():
        space.route(nodes[rng.randrange(len(nodes))], rng.randrange(1 << 32))

    benchmark(route)


def test_network_churn_throughput(benchmark, cluster):
    def churn_once():
        victim = cluster.network.random_alive_peer()
        cluster.network.leave_peer(victim)
        cluster.network.join_peer()

    benchmark(churn_once)
