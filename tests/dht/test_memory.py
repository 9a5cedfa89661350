"""Memory gate: the bytes a stored replica holds.

A peer stores one replica per hash function of ``Hr`` it is responsible
for, so the replica store is the one structure that grows with keys ×
``|Hr|``.  One ``insert_many`` of 512 keys into 200 peers with ``|Hr|`` 10
stores 5 120 replicas; everything the insert leaves allocated (the stored
values and their index, the per-function point memos, the key digests and
the KTS counters) is divided by that count.  The store as one dict plus the
untagged ``str`` point memo hold 390-430 B per replica on Python
3.10-3.13; a slab with a per-point index and tag tuples on every memo key
held 600-630 B.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import Cluster
from repro.dht import hashing

#: Most traced bytes one stored replica may hold.
MAX_BYTES_PER_REPLICA = 520


@pytest.mark.parametrize("name", ["chord", "kademlia"])
def test_a_stored_replica_holds_at_most_the_budget(name):
    cluster = Cluster.build(peers=200, protocol=name, seed=7, replicas=10)
    network, ums = cluster.network, cluster.service("ums")
    items = [(f"key-{index}", index) for index in range(512)]
    # Digests are memoised process-wide: start from an empty memo, so the
    # count does not depend on which tests ran before.
    hashing._cached_digest.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ums.insert_many(items)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    replicas = sum(len(network.peer(peer).store) for peer in network.alive_peer_ids())
    assert replicas == 512 * 10
    assert held / replicas <= MAX_BYTES_PER_REPLICA
