"""Scaling gate: per-operation cost at 10 000 peers stays close to 1 000 peers.

Routing is logarithmic (Chord, Kademlia) or ``O(d·n^(1/d))`` (CAN), and the
placement caches are keyed by membership version, so ten times the peers
must not double the wall-clock cost of an untraced operation.  Both network
sizes are built and timed in this process, so the bound compares like with
like whatever the machine.  A cell is the best of three timed passes over
2 000 operations.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.dht.hashing import HashFamily
from repro.dht.network import DHTNetwork
from repro.dht.registry import OVERLAYS

SEED = 2007
OPS = 2000
KEYS = 256
REPLICAS = 4
BATCH = 64
#: Allowed ratio of the 10k-peer to the 1k-peer per-operation time.
MAX_RATIO = 2.0


def operations(network: DHTNetwork) -> dict:
    """The five untraced operations, each one pass over a fixed schedule.

    ``put`` comes first, so the reads find stored data.
    """
    functions = HashFamily(bits=32, seed=SEED).sample_many(REPLICAS)
    writes = [(f"key-{index % KEYS}", functions[index % REPLICAS], {"n": index}, None, index)
              for index in range(OPS)]
    reads = [(key, function) for key, function, *_ in writes]

    def put():
        for key, function, data, _, version in writes:
            network.put(key, function, data, version=version)

    def get():
        for key, function in reads:
            network.get(key, function)

    def mixed():
        for index, (key, function, data, _, version) in enumerate(writes):
            if index % 2:
                network.get(key, function)
            else:
                network.put(key, function, data, version=version)

    def put_many():
        for start in range(0, OPS, BATCH):
            network.put_many(writes[start:start + BATCH])

    def get_many():
        for start in range(0, OPS, BATCH):
            network.get_many(reads[start:start + BATCH])

    return {"put": put, "get": get, "mixed": mixed, "put_many": put_many,
            "get_many": get_many}


def best_seconds_per_op(operations_by_size: dict) -> dict:
    """Best-of-3 seconds per op of each (size, operation) cell.

    The passes alternate between the sizes, so a burst of load on the
    machine lands on both, and run with the garbage collector off, as
    ``timeit`` times: a collection's cost follows the heap, not the walk.
    """
    best: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            for size, operations_of_size in operations_by_size.items():
                for name, operation in operations_of_size.items():
                    start = time.perf_counter()
                    operation()
                    elapsed = (time.perf_counter() - start) / OPS
                    best[size, name] = min(best.get((size, name), elapsed), elapsed)
    finally:
        if enabled:
            gc.enable()
    return best


@pytest.mark.parametrize("protocol", sorted(OVERLAYS))
def test_ten_times_the_peers_costs_at_most_twice_per_operation(protocol):
    operations_by_size = {}
    for peers in (1_000, 10_000):
        network = DHTNetwork.build(peers, protocol=protocol, bits=32, seed=SEED)
        assert network.size == peers
        operations_by_size[peers] = operations(network)
    best = best_seconds_per_op(operations_by_size)
    ratios = {name: best[10_000, name] / best[1_000, name] for name in operations_by_size[1_000]}
    assert max(ratios.values()) <= MAX_RATIO, ratios
