"""Full-column trace digests of seeded clusters, per overlay.

Each test replays a seeded session and hashes every column of every call's
trace — kinds, sizes, hop endpoints and timed-out indices, which is also what
the wire ships — so a change to how a message is found or recorded must fail
here, not merely shift ``messages_per_key_op``.  Chord's churn pin lives in
``test_chord_next_hop_oracle.py`` and Kademlia's per-call and routing-table
pins in ``test_kademlia_lookup_oracle.py``; these add the churn pins of
Kademlia and CAN and a batched pin per overlay.

The batched stream mixes 16-key ``insert_many``/``retrieve_many`` calls with
point calls, and gives every third step an ``unreachable`` set of replica
holders: it runs the timed-out branch of a located exchange, and the
multi-entry exchanges of ``put_many``/``get_many`` and of the batched KTS
calls.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import Cluster
from repro.dht.messages import MessageKind

OVERLAYS = ["chord", "kademlia", "can"]


def digest_trace(digest, trace):
    """Feed every column of ``trace`` to ``digest``."""
    digest.update(bytes(trace.kinds))
    for column in (trace.size_bytes, trace.sources, trace.dests, trace.timed_out):
        digest.update(repr(list(column)).encode("ascii"))


def churn_digest(protocol, peers, events):
    """The trace digest and retry count of a seeded session under churn.

    One departure (alternately a leave and a failure) and one join per event,
    12 simulated seconds per event, then an insert and two retrieves.
    """
    cluster = Cluster.build(peers=peers, protocol=protocol, seed=2007)
    network, rng, digest = cluster.network, random.Random(23), hashlib.sha1()
    retries = 0
    with cluster.session() as session:
        for event in range(events):
            victim = network.random_alive_peer()
            (network.fail_peer if event % 2 else network.leave_peer)(victim)
            network.join_peer()
            network.now += 12.0
            for call in range(3):
                key = f"key-{rng.randrange(48)}"
                result = (session.retrieve(key) if call else
                          session.insert(key, {"event": event}))
                retries += result.trace.count_by_kind().get(MessageKind.LOOKUP_RETRY, 0)
                digest_trace(digest, result.trace)
    return digest.hexdigest(), retries


def test_a_seeded_kademlia_cluster_under_churn_repeats_its_trace_digest():
    # Recorded at 9.0.0, on the session of the per-call pin but with a clock.
    digest, retries = churn_digest("kademlia", 1000, 200)
    assert retries == 827
    assert digest == "7839006e5326e9962db1317f351a5f2789f2d218"


def test_a_seeded_can_cluster_under_churn_repeats_its_trace_digest():
    # Recorded at 9.0.0.  CAN keeps no stale routing state: no retries.
    digest, retries = churn_digest("can", 200, 60)
    assert retries == 0
    assert digest == "4e3487102b4a453df68086c1dbacb5b4f2dce1e6"


BATCHED_PINS = {
    "chord": "70b2a5a69957240aaf0c5c0ac71353b02b47b51f",
    "kademlia": "59df75e0e3a7023b8efd8362863e257cc3a29c23",
    "can": "3c14deb8f588e7f912acd2512563cdeb86dac3c1",
}


@pytest.mark.parametrize("protocol", OVERLAYS)
def test_a_seeded_batched_stream_repeats_its_trace_digest(protocol):
    # Recorded at 9.0.0.
    cluster = Cluster.build(peers=200, protocol=protocol, seed=2007,
                            stabilization_interval=30.0)
    network, rng, digest = cluster.network, random.Random(29), hashlib.sha1()
    hashes = list(cluster.replication)
    keys = [f"key-{index}" for index in range(64)]
    timeouts = multi_entry = 0   # timed-out requests, multi-entry messages
    with cluster.session() as session:
        for step in range(30):
            if step % 4 == 3:
                victim = network.random_alive_peer()
                (network.fail_peer if step % 8 == 3 else network.leave_peer)(victim)
                network.join_peer()
            network.now += 12.0
            batch = rng.sample(keys, 16)
            unreachable = frozenset()
            if step % 3 == 0:
                unreachable = frozenset(
                    network.responsible_peer(key, hash_fn)
                    for key in batch[:6] for hash_fn in rng.sample(hashes, 3))
            point = batch[0]
            for result in (
                    session.insert_many([(key, {"step": step}) for key in batch],
                                        unreachable=unreachable),
                    session.retrieve_many(batch, unreachable=unreachable),
                    session.insert(point, {"step": step}, unreachable=unreachable),
                    session.retrieve(point, unreachable=unreachable)):
                trace = result.trace
                timeouts += sum(message.timed_out
                                and message.kind is not MessageKind.LOOKUP_RETRY
                                for message in trace)
                multi_entry += sum(size > network.message_sizes.data_bytes
                                   for size in trace.size_bytes)
                digest_trace(digest, trace)
    assert timeouts > 0 and multi_entry > 0     # both branches ran
    assert digest.hexdigest() == BATCHED_PINS[protocol]
