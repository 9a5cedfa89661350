"""Unit tests for the DHT network layer (peers, churn, put/get, observers)."""

from __future__ import annotations

import random

import pytest
from trace_columns import Columns, record_columns

from repro.core.timestamps import Timestamp
from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NoSuchPeerError,
)
from repro.dht.hashing import HashFamily
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.dht.model import DepartureReason
from repro.dht.network import DHTNetwork, NetworkObserver


@pytest.fixture
def network():
    return DHTNetwork.build(24, seed=42)


@pytest.fixture
def hash_fn():
    return HashFamily(bits=32, seed=7).sample("hr-0")


class TestConstruction:
    def test_build_creates_requested_population(self, network):
        assert network.size == 24
        assert len(network.alive_peer_ids()) == 24

    def test_build_resets_maintenance_stats(self, network):
        assert network.stats.joins == 0
        assert network.stats.maintenance_messages == 0

    def test_build_rejects_empty_population(self):
        with pytest.raises(ValueError):
            DHTNetwork.build(0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            DHTNetwork(protocol="pastry")

    def test_can_protocol_supported(self):
        network = DHTNetwork.build(8, protocol="can", seed=3)
        assert network.size == 8

    def test_kademlia_protocol_supported(self):
        network = DHTNetwork.build(8, protocol="kademlia", seed=3)
        assert network.size == 8

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(ValueError):
            DHTNetwork(seed=1, rng=random.Random(2))

    def test_same_seed_same_population(self):
        first = DHTNetwork.build(10, seed=5)
        second = DHTNetwork.build(10, seed=5)
        assert first.alive_peer_ids() == second.alive_peer_ids()


class TestPeerAccess:
    def test_peer_returns_state(self, network):
        peer_id = network.random_alive_peer()
        state = network.peer(peer_id)
        assert state.peer_id == peer_id
        assert network.is_alive(peer_id)

    def test_peer_unknown_raises(self, network):
        with pytest.raises(NoSuchPeerError):
            network.peer(-1)

    def test_is_alive(self, network):
        peer_id = network.random_alive_peer()
        assert network.is_alive(peer_id)
        assert not network.is_alive(-1)

    def test_new_peer_id_is_unused(self, network):
        for _ in range(20):
            assert not network.is_alive(network.new_peer_id())

    def test_random_alive_peer_on_empty_network_raises(self):
        network = DHTNetwork(seed=1)
        with pytest.raises(EmptyNetworkError):
            network.random_alive_peer()

    def test_new_peer_id_raises_when_space_exhausted(self):
        # 2^3 = 8 identifiers, all taken: drawing a 9th must fail loudly
        # instead of rejection-sampling forever.
        network = DHTNetwork.build(8, bits=3, seed=11)
        with pytest.raises(InvalidConfigurationError):
            network.new_peer_id()

    def test_join_on_exhausted_space_raises(self):
        network = DHTNetwork.build(8, bits=3, seed=11)
        with pytest.raises(InvalidConfigurationError):
            network.join_peer()

    def test_space_frees_up_after_departure(self):
        network = DHTNetwork.build(8, bits=3, seed=11)
        network.leave_peer(network.random_alive_peer())
        assert not network.is_alive(network.new_peer_id())


class TestPutGet:
    def test_put_then_get_roundtrip(self, network, hash_fn):
        assert network.put("k", hash_fn, {"v": 1}, timestamp=Timestamp("k", 1))
        entry = network.get("k", hash_fn)
        assert entry.data == {"v": 1}
        assert entry.timestamp.value == 1

    def test_get_missing_returns_none(self, network, hash_fn):
        assert network.get("missing", hash_fn) is None

    def test_put_is_stored_at_the_responsible(self, network, hash_fn):
        network.put("k", hash_fn, "payload", timestamp=Timestamp("k", 1))
        responsible = network.responsible_peer("k", hash_fn)
        assert network.peer(responsible).store.get(hash_fn.name, "k").data == "payload"

    def test_put_reconciles_by_timestamp(self, network, hash_fn):
        network.put("k", hash_fn, "new", timestamp=Timestamp("k", 5))
        assert not network.put("k", hash_fn, "old", timestamp=Timestamp("k", 3))
        assert network.get("k", hash_fn).data == "new"

    def test_put_to_unreachable_responsible_fails(self, network, hash_fn):
        responsible = network.responsible_peer("k", hash_fn)
        stored = network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1),
                             unreachable=frozenset({responsible}))
        assert not stored
        assert network.get("k", hash_fn) is None

    def test_get_from_unreachable_responsible_returns_none(self, network, hash_fn):
        network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        responsible = network.responsible_peer("k", hash_fn)
        assert network.get("k", hash_fn, unreachable=frozenset({responsible})) is None

    def test_trace_records_route_and_request_reply(self, network, hash_fn):
        columns = record_columns(network)
        trace = network.new_trace()
        lookup = network.lookup("k", hash_fn, trace=trace)
        assert trace.message_count == lookup.hops == len(columns.take())
        trace = network.new_trace()
        network.get("k", hash_fn, trace=trace)
        kinds = [message.kind for message in columns.take()]
        assert kinds.count(MessageKind.GET_REQUEST) == 1
        assert kinds.count(MessageKind.GET_REPLY) == 1

    def test_a_trace_of_other_sizes_prices_its_exchanges_itself(self, network, hash_fn):
        # Exchange rows are kept on the trace's sizes, not the network's: a
        # caller's trace of other sizes is priced at its own.
        sizes = MessageSizes(control_bytes=64, data_bytes=512)
        for entries in (1, 3):
            columns = Columns()
            trace = TraceSummary(0, 0, 0, sizes.control_bytes, sizes, columns)
            if entries == 1:
                network.get("k", hash_fn, trace=trace)
            else:
                network.get_many([("k", hash_fn)] * entries, trace=trace)
            priced = columns.size_bytes
            assert priced == [64] * (len(priced) - 1) + [512 * entries]
            assert trace.total_bytes == sum(priced)

    def test_lookup_origin_respected(self, network, hash_fn):
        origin = network.random_alive_peer()
        result = network.lookup("k", hash_fn, origin=origin)
        assert result.route.path[0] == origin

    def test_lookup_with_dead_origin_falls_back_to_random(self, network, hash_fn):
        dead = network.random_alive_peer()
        network.fail_peer(dead)
        result = network.lookup("k", hash_fn, origin=dead)
        assert network.is_alive(result.route.path[0])

    def test_lookup_records_the_named_exchange_after_the_hops(self, network, hash_fn):
        columns = record_columns(network)
        trace = network.new_trace()
        result = network.lookup("k", hash_fn, trace=trace,
                                exchange=(MessageKind.TSR, MessageKind.TSR_REPLY))
        hops = result.route.hops + result.route.retries
        assert trace.message_count == hops + 2 == len(columns)
        request, reply = columns.messages[-2:]
        assert (request.kind, request.source, request.dest) == \
            (MessageKind.TSR, None, result.responsible)
        assert (reply.kind, reply.source, reply.dest) == \
            (MessageKind.TSR_REPLY, result.responsible, None)
        # An untraced lookup has nowhere to record it and walks nothing.
        untraced = network.lookup("k", hash_fn, origin=result.route.path[0],
                                  exchange=(MessageKind.TSR, MessageKind.TSR_REPLY))
        assert untraced.responsible == result.responsible
        assert untraced.route.path in ((result.responsible,),
                                       (result.route.path[0], result.responsible))

    def test_stored_replicas_reports_available_copies(self, network):
        family = HashFamily(bits=32, seed=70)
        hashes = family.sample_many(5)
        for hash_fn in hashes:
            network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        replicas = network.stored_replicas("k", hashes)
        assert len(replicas) == 5


class TestChurn:
    def test_join_increases_population(self, network):
        before = network.size
        network.join_peer()
        assert network.size == before + 1
        assert network.stats.joins == 1

    def test_leave_hands_data_to_new_responsible(self, network, hash_fn):
        network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        holder = network.responsible_peer("k", hash_fn)
        network.leave_peer(holder)
        assert not network.is_alive(holder)
        # The data survived the departure and is at the new responsible.
        assert network.get("k", hash_fn).data == "x"
        assert network.stats.handover_entries >= 1

    def test_fail_loses_data(self, network, hash_fn):
        network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        holder = network.responsible_peer("k", hash_fn)
        network.fail_peer(holder)
        assert network.get("k", hash_fn) is None
        assert network.stats.lost_entries >= 1

    def test_join_takes_over_keys_from_successor(self, network, hash_fn):
        network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        # Join many peers; whatever ends up responsible must hold the replica.
        for _ in range(30):
            network.join_peer()
        responsible = network.responsible_peer("k", hash_fn)
        assert network.peer(responsible).store.get(hash_fn.name, "k").data == "x"

    def test_leave_unknown_peer_raises(self, network):
        with pytest.raises(NoSuchPeerError):
            network.leave_peer(-5)

    def test_departed_peer_state_is_kept(self, network):
        peer_id = network.random_alive_peer()
        network.fail_peer(peer_id)
        assert network.protocol.departure_reason(peer_id) == DepartureReason.FAIL
        assert not network.is_alive(peer_id)

    def test_churn_counters(self, network):
        first = network.random_alive_peer()
        network.leave_peer(first)
        second = network.random_alive_peer()
        network.fail_peer(second)
        network.join_peer()
        assert network.stats.leaves == 1
        assert network.stats.failures == 1
        assert network.stats.joins == 1


class RecordingObserver(NetworkObserver):
    def __init__(self):
        self.events = []

    def peer_joined(self, network, peer_id, affected):
        self.events.append(("joined", peer_id, frozenset(affected)))

    def peer_left(self, network, peer_id):
        self.events.append(("left", peer_id))

    def peer_failed(self, network, peer_id):
        self.events.append(("failed", peer_id))


class TestObservers:
    def test_join_notifies_observers(self, network):
        observer = RecordingObserver()
        network.add_observer(observer)
        new_peer = network.join_peer()
        assert ("joined", new_peer) == observer.events[0][:2]

    def test_leave_notifies_in_order(self, network):
        observer = RecordingObserver()
        network.add_observer(observer)
        peer_id = network.random_alive_peer()
        network.leave_peer(peer_id)
        assert observer.events == [("left", peer_id)]

    def test_fail_notifies(self, network):
        observer = RecordingObserver()
        network.add_observer(observer)
        peer_id = network.random_alive_peer()
        network.fail_peer(peer_id)
        assert observer.events == [("failed", peer_id)]

    def test_observers_notified_in_registration_order(self, network):
        order = []

        class Ordered(NetworkObserver):
            def __init__(self, tag):
                self.tag = tag

            def peer_joined(self, network, peer_id, affected):
                order.append(self.tag)

        first, second, third = Ordered("a"), Ordered("b"), Ordered("c")
        for observer in (first, second, third):
            network.add_observer(observer)
        network.join_peer()
        assert order == ["a", "b", "c"]


@pytest.fixture(params=["chord", "kademlia", "can"])
def overlay_network(request):
    return DHTNetwork.build(24, protocol=request.param, seed=9)


def holders(network, key, hash_fn):
    """Live peers whose store holds ``key`` under ``hash_fn``."""
    return [peer_id for peer_id in network.alive_peer_ids()
            if network.peer(peer_id).store.get(hash_fn.name, key) is not None]


class TestResponsibility:
    """``rsp(k, h)`` on every overlay: the one live holder of ``(k, h)``."""

    def test_put_stores_only_at_rsp(self, overlay_network, hash_fn):
        overlay_network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        assert holders(overlay_network, "k", hash_fn) == \
            [overlay_network.responsible_peer("k", hash_fn)]

    def test_a_leave_hands_the_entry_to_the_next_rsp(self, overlay_network, hash_fn):
        overlay_network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        previous = overlay_network.responsible_peer("k", hash_fn)
        overlay_network.leave_peer(previous)
        current = overlay_network.responsible_peer("k", hash_fn)
        assert current != previous and overlay_network.is_alive(current)
        assert holders(overlay_network, "k", hash_fn) == [current]
        assert overlay_network.peer(current).store.get(hash_fn.name, "k").data == "x"

    def test_a_join_that_takes_the_key_moves_the_entry(self, overlay_network, hash_fn):
        overlay_network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        previous = overlay_network.responsible_peer("k", hash_fn)
        for _ in range(500):
            newcomer = overlay_network.join_peer()
            if overlay_network.responsible_peer("k", hash_fn) == newcomer:
                break
        assert overlay_network.responsible_peer("k", hash_fn) == newcomer != previous
        assert holders(overlay_network, "k", hash_fn) == [newcomer]

    def test_a_failed_rsp_loses_the_entry(self, overlay_network, hash_fn):
        overlay_network.put("k", hash_fn, "x", timestamp=Timestamp("k", 1))
        previous = overlay_network.responsible_peer("k", hash_fn)
        overlay_network.fail_peer(previous)
        assert overlay_network.responsible_peer("k", hash_fn) != previous
        assert holders(overlay_network, "k", hash_fn) == []
        assert overlay_network.get("k", hash_fn) is None

    def test_responsibility_is_per_hash_function(self, overlay_network):
        family = HashFamily(bits=32, seed=7)
        first, second = family.sample("hr-0"), family.sample("hr-1")
        overlay_network.put("k", first, "one", timestamp=Timestamp("k", 1))
        assert overlay_network.get("k", second) is None
        overlay_network.put("k", second, "two", timestamp=Timestamp("k", 1))
        assert holders(overlay_network, "k", first) == \
            [overlay_network.responsible_peer("k", first)]
        assert holders(overlay_network, "k", second) == \
            [overlay_network.responsible_peer("k", second)]
        assert overlay_network.get("k", first).data == "one"
        assert overlay_network.get("k", second).data == "two"

    def test_every_entry_stays_at_rsp_through_joins_and_leaves(self, overlay_network,
                                                               hash_fn):
        keys = [f"key-{i}" for i in range(20)]
        for key in keys:
            overlay_network.put(key, hash_fn, key, timestamp=Timestamp(key, 1))
        rng = random.Random(3)
        for _ in range(30):
            if rng.random() < 0.5:
                overlay_network.join_peer()
            else:
                overlay_network.leave_peer(overlay_network.random_alive_peer())
        for key in keys:
            assert holders(overlay_network, key, hash_fn) == \
                [overlay_network.responsible_peer(key, hash_fn)]
            assert overlay_network.get(key, hash_fn).data == key
