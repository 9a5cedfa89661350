"""Overlay conformance suite.

Every overlay registered in :mod:`repro.dht.registry` must honour the same
:class:`~repro.dht.model.DHTProtocol` contract — the paper's services assume
only the lookup service, ``put_h``/``get_h`` and responsibility notifications
(Section 2), so the suite runs identically over Chord, CAN and Kademlia (and
will automatically cover any overlay registered later).

Covered here, per overlay:

* lookup correctness — routes start at the origin and end at the node the
  overlay reports responsible;
* churn handover — joins and normal leaves move every stored replica to its
  new responsible (Responsibility Loss Aware behaviour, Section 4.3);
* responsibility transitions — ``nrsp`` predicts the post-departure owner;
* message accounting — every operation records its messages in the trace;
* service integration — a UMS insert/retrieve round-trip over a churning
  network returns the current replica with a recorded trace.

The whole suite runs at three identifier widths per overlay: the default
32 bits, 64 bits and a SHA-1-sized 160 bits.  Overlay state is plain lists
and CAN's zone index is keyed by unbounded integers, so no width is special;
the wide spaces pin that nothing silently assumes a machine word.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.dht.hashing import HashFamily
from repro.dht.network import DHTNetwork
from repro.dht.registry import OVERLAYS, create_overlay

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")
WIDTHS = (32, 64, 160)


def test_suite_covers_every_registered_overlay():
    # If a new overlay is registered, add it to the parameterisation below.
    assert set(BUILTIN_OVERLAYS) == set(OVERLAYS)


@pytest.fixture(params=BUILTIN_OVERLAYS)
def protocol_name(request) -> str:
    return request.param


@pytest.fixture(params=WIDTHS)
def bits(request) -> int:
    return request.param


@pytest.fixture
def network(protocol_name, bits) -> DHTNetwork:
    return DHTNetwork.build(24, protocol=protocol_name, bits=bits, seed=404)


@pytest.fixture
def hash_fns(protocol_name, bits):
    return HashFamily(bits=bits, seed=77).sample_many(4, prefix="hr")


class TestLookupCorrectness:
    def test_lookup_agrees_with_the_overlay_responsibility(self, network, hash_fns):
        rng = random.Random(5)
        for index in range(20):
            key = f"key-{index}"
            hash_fn = hash_fns[index % len(hash_fns)]
            origin = rng.choice(network.protocol.nodes())
            result = network.lookup(key, hash_fn, origin=origin)
            assert result.responsible == network.protocol.responsible_for(result.point)
            assert result.route.path[0] == origin
            assert result.route.path[-1] == result.responsible

    def test_route_from_every_node_reaches_the_responsible(self, network):
        point = 123_456_789
        responsible = network.protocol.responsible_for(point)
        for origin in network.alive_peer_ids():
            route = network.protocol.route(origin, point)
            assert route.path[-1] == responsible
            assert route.hops >= 0
            assert route.message_count == route.hops + route.retries

    def test_responsible_is_always_live(self, network):
        rng = random.Random(9)
        for _ in range(50):
            point = rng.randrange(1 << network.bits)
            assert network.protocol.responsible_for(point) in network.protocol

    def test_origin_draw_is_one_randrange_over_the_node_tuple(self, network):
        # Which origin an operation starts from is part of every seeded trace:
        # one draw of ``randrange(len(nodes))`` per origin, nothing more.
        twin = random.Random()
        twin.setstate(network.rng.getstate())
        nodes = network.protocol.nodes()
        for _ in range(1000):
            assert network.random_alive_peer() == nodes[twin.randrange(len(nodes))]
        assert network.rng.getstate() == twin.getstate()


class TestPutGet:
    def test_put_then_get_round_trips(self, network, hash_fns):
        for index in range(10):
            key = f"key-{index}"
            for hash_fn in hash_fns:
                assert network.put(key, hash_fn, {"value": index})
            for hash_fn in hash_fns:
                entry = network.get(key, hash_fn)
                assert entry is not None
                assert entry.data == {"value": index}

    def test_replicas_live_at_their_responsibles(self, network, hash_fns):
        network.put("the-key", hash_fns[0], "payload")
        responsible = network.responsible_peer("the-key", hash_fns[0])
        entry = network.peer(responsible).store.get(hash_fns[0].name, "the-key")
        assert entry is not None and entry.data == "payload"


class TestChurnHandover:
    def test_joins_hand_over_the_displaced_replicas(self, network, hash_fns):
        keys = [f"key-{index}" for index in range(12)]
        for key in keys:
            for hash_fn in hash_fns:
                network.put(key, hash_fn, {"k": key})
        for _ in range(15):
            network.join_peer()
        for key in keys:
            for hash_fn in hash_fns:
                entry = network.get(key, hash_fn)
                assert entry is not None, (key, hash_fn.name)
                assert entry.data == {"k": key}

    def test_normal_leaves_hand_over_every_replica(self, network, hash_fns):
        keys = [f"key-{index}" for index in range(12)]
        for key in keys:
            for hash_fn in hash_fns:
                network.put(key, hash_fn, {"k": key})
        rng = random.Random(31)
        for _ in range(12):
            network.leave_peer(network.random_alive_peer())
            network.join_peer()
        assert network.stats.lost_entries == 0
        for key in keys:
            for hash_fn in hash_fns:
                entry = network.get(key, hash_fn)
                assert entry is not None, (key, hash_fn.name)

    def test_next_responsible_predicts_the_departure_takeover(self, protocol_name,
                                                              bits):
        overlay = create_overlay(protocol_name, bits=bits, rng=random.Random(2))
        rng = random.Random(3)
        for _ in range(20):
            node_id = rng.randrange(1 << bits)
            if node_id not in overlay:
                overlay.add_node(node_id)
        for point in (0, 513, 40_000, (1 << bits) - 1):
            predicted = overlay.next_responsible(point)
            assert predicted is not None
            overlay.remove_node(overlay.responsible_for(point))
            assert overlay.responsible_for(point) == predicted

    def test_join_affected_set_names_only_live_nodes(self, protocol_name, bits):
        overlay = create_overlay(protocol_name, bits=bits, rng=random.Random(4))
        rng = random.Random(5)
        members = set()
        for _ in range(25):
            node_id = rng.randrange(1 << bits)
            if node_id in overlay:
                continue
            affected = overlay.add_node(node_id)
            assert node_id not in affected
            assert affected <= members
            members.add(node_id)


class TestMessageAccounting:
    def test_every_operation_records_its_messages(self, network, hash_fns):
        trace = network.new_trace()
        network.put("traced", hash_fns[0], "data", trace=trace)
        put_messages = trace.message_count
        assert put_messages >= 2  # at least the put request/ack
        network.get("traced", hash_fns[0], trace=trace)
        assert trace.message_count >= put_messages + 2

    def test_lookup_trace_matches_the_route(self, network, hash_fns):
        trace = network.new_trace()
        result = network.lookup("traced", hash_fns[1], trace=trace)
        assert trace.message_count == result.route.hops + result.route.retries

    def test_maintenance_traffic_is_counted(self, network, hash_fns):
        for index in range(10):
            network.put(f"key-{index}", hash_fns[0], index)
        before = network.stats.maintenance_messages
        for _ in range(8):
            network.leave_peer(network.random_alive_peer())
            network.join_peer()
        assert network.stats.maintenance_messages >= before
        assert network.stats.handover_entries >= 0


class TestServiceIntegration:
    def test_ums_round_trip_over_a_churning_network(self, protocol_name, bits):
        cluster = Cluster.build(peers=40, replicas=6,
                                protocol=protocol_name, bits=bits, seed=1234)
        rng = random.Random(99)
        cluster.service("ums").insert("the-doc", {"rev": 0})
        for revision in range(1, 4):
            # Mixed churn between updates: leaves, joins and a failure.
            for _ in range(5):
                victim = cluster.network.random_alive_peer()
                if rng.random() < 0.2:
                    cluster.network.fail_peer(victim)
                else:
                    cluster.network.leave_peer(victim)
                cluster.network.join_peer()
            cluster.service("ums").insert("the-doc", {"rev": revision})
        result = cluster.service("ums").retrieve("the-doc")
        assert result.found
        assert result.data == {"rev": 3}
        assert result.is_current
        assert result.trace.message_count > 0

    def test_kts_counters_survive_overlay_churn(self, protocol_name, bits):
        cluster = Cluster.build(peers=30, replicas=5,
                                protocol=protocol_name, bits=bits, seed=77)
        first = cluster.kts.gen_ts("a-key")
        for _ in range(10):
            cluster.network.leave_peer(cluster.network.random_alive_peer())
            cluster.network.join_peer()
        second = cluster.kts.gen_ts("a-key")
        assert second.value > first.value
