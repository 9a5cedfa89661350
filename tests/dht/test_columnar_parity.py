"""Bit-identical parity between the object and columnar representations.

The columnar overlays (``repro.dht.columnar``) are pure storage-layout
changes: same protocol logic, same RNG draws, same caches.  This suite pins
the equivalence at the strongest level the simulator can observe —

* identical routes and message traces over identical mixed workloads,
* identical per-peer store contents after churn (including failures),
* identical random streams (``Random.getstate()`` of both the network RNG
  and the overlay's private RNG) after every scenario,
* identical k-bucket contents under the LRS update rules, and
* a hypothesis property over arbitrary join/leave/fail/put/get sequences.

Any divergence here means the columnar layer changed behaviour, not just
layout, and must be treated as a bug even if all end-to-end numbers look
plausible.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.can import CanSpace
from repro.dht.chord import ChordRing
from repro.dht.columnar import MAX_COLUMNAR_BITS, accel
from repro.dht.columnar.can import ColumnarCanSpace
from repro.dht.columnar.chord import ColumnarChordRing
from repro.dht.columnar.kademlia import ArrayRoutingTable, ColumnarKademliaOverlay
from repro.dht.errors import InvalidConfigurationError
from repro.dht.hashing import HashFamily
from repro.dht.kademlia import KademliaOverlay, RoutingTable
from repro.dht.network import DHTNetwork
from repro.dht.registry import (
    COLUMNAR_REPRESENTATION,
    DEFAULT_REPRESENTATION,
    OBJECT_REPRESENTATION,
    create_overlay,
    register_overlay,
    representation_names,
    unregister_overlay,
)

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")

COLUMNAR_CLASSES = {
    "chord": ColumnarChordRing,
    "can": ColumnarCanSpace,
    "kademlia": ColumnarKademliaOverlay,
}
OBJECT_CLASSES = {
    "chord": ChordRing,
    "can": CanSpace,
    "kademlia": KademliaOverlay,
}


@pytest.fixture(params=BUILTIN_OVERLAYS)
def protocol_name(request) -> str:
    return request.param


def _paired_networks(protocol_name: str, *, peers: int = 24, seed: int = 404,
                     **kwargs):
    reference = DHTNetwork.build(peers, protocol=protocol_name, seed=seed,
                                 representation=OBJECT_REPRESENTATION, **kwargs)
    columnar = DHTNetwork.build(peers, protocol=protocol_name, seed=seed,
                                representation=COLUMNAR_REPRESENTATION, **kwargs)
    assert type(reference.protocol) is OBJECT_CLASSES[protocol_name]
    assert type(columnar.protocol) is COLUMNAR_CLASSES[protocol_name]
    return reference, columnar


def _store_snapshot(network: DHTNetwork):
    return {peer_id: network.peer(peer_id).store.values()
            for peer_id in sorted(network.alive_peer_ids())}


def _assert_networks_identical(reference: DHTNetwork, columnar: DHTNetwork):
    assert tuple(reference.protocol.nodes()) == tuple(columnar.protocol.nodes())
    assert reference.rng.getstate() == columnar.rng.getstate()
    assert (reference.protocol._rng.getstate()
            == columnar.protocol._rng.getstate())
    assert _store_snapshot(reference) == _store_snapshot(columnar)
    assert vars(reference.stats) == vars(columnar.stats)


class TestRegistryRepresentations:
    def test_builtin_overlays_offer_both_representations(self, protocol_name):
        assert representation_names(protocol_name) == (
            COLUMNAR_REPRESENTATION, OBJECT_REPRESENTATION)

    def test_default_representation_is_columnar(self, protocol_name):
        assert DEFAULT_REPRESENTATION == COLUMNAR_REPRESENTATION
        overlay = create_overlay(protocol_name, rng=random.Random(0))
        assert type(overlay) is COLUMNAR_CLASSES[protocol_name]
        assert overlay.representation == COLUMNAR_REPRESENTATION

    def test_environment_variable_selects_the_representation(
            self, protocol_name, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAY_REPRESENTATION",
                           OBJECT_REPRESENTATION)
        overlay = create_overlay(protocol_name, rng=random.Random(0))
        assert type(overlay) is OBJECT_CLASSES[protocol_name]
        assert overlay.representation == OBJECT_REPRESENTATION

    def test_explicit_argument_beats_the_environment(self, protocol_name,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAY_REPRESENTATION",
                           OBJECT_REPRESENTATION)
        overlay = create_overlay(protocol_name, rng=random.Random(0),
                                 representation=COLUMNAR_REPRESENTATION)
        assert type(overlay) is COLUMNAR_CLASSES[protocol_name]

    def test_unknown_representation_is_rejected(self):
        with pytest.raises(ValueError, match="no 'sparse' representation"):
            create_overlay("chord", representation="sparse")

    def test_wide_identifier_spaces_fall_back_to_objects(self, protocol_name):
        overlay = create_overlay(protocol_name, bits=MAX_COLUMNAR_BITS + 8,
                                 rng=random.Random(0),
                                 representation=COLUMNAR_REPRESENTATION)
        assert type(overlay) is OBJECT_CLASSES[protocol_name]

    def test_columnar_classes_reject_wide_spaces_directly(self, protocol_name):
        with pytest.raises(InvalidConfigurationError, match="at most 64 bits"):
            COLUMNAR_CLASSES[protocol_name](bits=MAX_COLUMNAR_BITS + 8)

    def test_overlays_without_a_columnar_factory_fall_back(self):
        register_overlay(
            "parity-custom",
            lambda *, bits, stabilization_interval, rng, **extra:
                ChordRing(bits=bits,
                          stabilization_interval=stabilization_interval,
                          rng=rng))
        try:
            overlay = create_overlay("parity-custom", rng=random.Random(0),
                                     representation=COLUMNAR_REPRESENTATION)
            assert type(overlay) is ChordRing
        finally:
            unregister_overlay("parity-custom")

    def test_protocol_name_is_representation_independent(self, protocol_name):
        reference = create_overlay(protocol_name, rng=random.Random(0),
                                   representation=OBJECT_REPRESENTATION)
        columnar = create_overlay(protocol_name, rng=random.Random(0),
                                  representation=COLUMNAR_REPRESENTATION)
        assert columnar.protocol_name == reference.protocol_name
        assert columnar.protocol_name == type(reference).__name__


class TestBitIdenticalWorkloads:
    def test_builds_are_identical(self, protocol_name):
        reference, columnar = _paired_networks(protocol_name)
        _assert_networks_identical(reference, columnar)

    def test_mixed_workload_is_identical(self, protocol_name):
        reference, columnar = _paired_networks(protocol_name)
        hash_fns = HashFamily(bits=32, seed=77).sample_many(4, prefix="hp")

        def run(network: DHTNetwork):
            observations = []
            for step in range(60):
                key = f"key-{step % 17}"
                hash_fn = hash_fns[step % len(hash_fns)]
                action = step % 6
                if action == 0:  # trace-free fast-path put
                    observations.append(network.put(key, hash_fn,
                                                    {"step": step}))
                elif action == 1:  # traced put
                    trace = network.new_trace()
                    network.put(key, hash_fn, {"step": step}, trace=trace)
                    observations.append(trace.message_count)
                elif action == 2:  # trace-free fast-path get
                    entry = network.get(key, hash_fn)
                    observations.append(None if entry is None else entry.data)
                elif action == 3:  # traced lookup: full route must match
                    trace = network.new_trace()
                    result = network.lookup(key, hash_fn, trace=trace)
                    observations.append((result.point, result.responsible,
                                         result.route.path,
                                         result.route.retries,
                                         result.route.timeouts,
                                         trace.message_count))
                elif action == 4:
                    observations.append(network.join_peer())
                else:
                    victim = network.random_alive_peer()
                    if step % 2:
                        network.leave_peer(victim)
                    else:
                        network.fail_peer(victim)
                    observations.append(victim)
            return observations

        assert run(reference) == run(columnar)
        _assert_networks_identical(reference, columnar)

    def test_untraced_and_traced_routes_agree_across_representations(
            self, protocol_name):
        reference, columnar = _paired_networks(protocol_name, peers=16,
                                               seed=11)
        hash_fn = HashFamily(bits=32, seed=5).sample("hq")
        for index in range(10):
            key = f"key-{index}"
            assert (reference.put(key, hash_fn, index)
                    == columnar.put(key, hash_fn, index))
            reference_result = reference.lookup(key, hash_fn)
            columnar_result = columnar.lookup(key, hash_fn)
            assert reference_result.responsible == columnar_result.responsible
            assert reference_result.point == columnar_result.point


class TestChurnPropertyParity:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                        max_size=40))
    def test_arbitrary_churn_sequences_stay_identical(self, ops):
        for protocol_name in BUILTIN_OVERLAYS:
            reference, columnar = _paired_networks(protocol_name, peers=10,
                                                   seed=90)
            hash_fn = HashFamily(bits=32, seed=3).sample("hc")
            for network in (reference, columnar):
                for index, op in enumerate(ops):
                    if op == 0:
                        network.join_peer()
                    elif op == 1 and network.size > 3:
                        network.leave_peer(network.random_alive_peer())
                    elif op == 2 and network.size > 3:
                        network.fail_peer(network.random_alive_peer())
                    elif op == 3:
                        network.put(f"key-{index}", hash_fn, index)
                    elif op == 4:
                        network.get(f"key-{index % 7}", hash_fn)
                    else:
                        network.lookup(f"key-{index % 5}", hash_fn)
            _assert_networks_identical(reference, columnar)


class TestArrayRoutingTableParity:
    def test_random_update_sequences_match_kbucket_semantics(self):
        rng = random.Random(52)
        reference = RoutingTable(owner=0, bits=16, k=3)
        packed = ArrayRoutingTable(owner=0, bits=16, k=3)

        def is_alive(contact: int) -> bool:
            return contact % 2 == 0

        pool = [rng.randrange(1, 1 << 16) for _ in range(64)]
        for step in range(400):
            contact = pool[rng.randrange(len(pool))]
            op = rng.randrange(3)
            if op == 0:
                assert (reference.observe(contact, is_alive)
                        == packed.observe(contact, is_alive))
            elif op == 1:
                assert reference.learn(contact) == packed.learn(contact)
            else:
                reference.discard(contact)
                packed.discard(contact)
            assert reference.contacts() == packed.contacts()
            assert len(reference) == len(packed)
        for _ in range(20):
            point = rng.randrange(1 << 16)
            for count in (1, 3, 8, 64):
                assert (reference.closest(point, count)
                        == packed.closest(point, count))

    def test_bucket_snapshots_expose_the_packed_rows(self):
        packed = ArrayRoutingTable(owner=0, bits=8, k=4)
        for contact in (3, 5, 9, 130):
            packed.learn(contact)
        index = packed.bucket_index(130)
        snapshot = packed.bucket(index)
        assert snapshot.contacts == [130]
        # Snapshots are copies: mutating one must not corrupt the table.
        snapshot.contacts.append(200)
        assert 200 not in packed.contacts()


class TestColumnarCanIndex:
    def test_zone_index_mirrors_the_zone_table_under_churn(self):
        space = ColumnarCanSpace(bits=16, dimensions=2, rng=random.Random(8))
        mirror = CanSpace(bits=16, dimensions=2, rng=random.Random(8))
        rng = random.Random(9)
        members = []
        for step in range(120):
            if members and rng.random() < 0.35:
                node_id = members.pop(rng.randrange(len(members)))
                space.remove_node(node_id)
                mirror.remove_node(node_id)
            else:
                node_id = rng.randrange(1 << 16)
                if node_id in space:
                    continue
                space.add_node(node_id)
                mirror.add_node(node_id)
                members.append(node_id)
            # The packed index holds exactly the live zones, with the right
            # owner in the owner column.
            total_zones = sum(len(zones) for zones in space._zones.values())
            assert len(space._zone_slots) == total_zones
            for owner, zones in space._zones.items():
                for zone in zones:
                    slot = space._zone_slots[space._pack_zone(zone)]
                    assert space._zone_owner[slot] == owner
        for _ in range(80):
            point = rng.randrange(1 << 16)
            coords = space.coordinates(point)
            assert space._owner_of(coords) == mirror._owner_of(coords)

    def test_packed_zone_keys_are_unique_per_zone(self):
        space = ColumnarCanSpace(bits=16, dimensions=2, rng=random.Random(4))
        for node_id in range(0, 4000, 67):
            space.add_node(node_id)
        keys = [space._pack_zone(zone)
                for zones in space._zones.values() for zone in zones]
        assert len(keys) == len(set(keys))


class TestAccelHelpers:
    def test_successor_positions_match_bisect(self):
        import bisect
        rng = random.Random(14)
        members = array("Q", sorted({rng.getrandbits(32) for _ in range(200)}))
        targets = [rng.getrandbits(32) for _ in range(500)]
        expected = [bisect.bisect_left(members, target) % len(members)
                    for target in targets]
        assert accel.successor_positions(members, targets) == expected

    @pytest.mark.skipif(not accel.HAVE_NUMPY,
                        reason="repro[fast] (numpy) not installed")
    def test_numpy_and_pure_paths_agree(self, monkeypatch):
        rng = random.Random(15)
        contacts = array("Q", sorted({rng.getrandbits(48) for _ in range(512)}))
        targets = [rng.getrandbits(48) for _ in range(64)]
        vector_positions = accel.successor_positions(contacts, targets)
        monkeypatch.setattr(accel, "_np", None)
        assert accel.successor_positions(contacts, targets) == vector_positions

    def test_numpy_flag_is_a_bool(self):
        # numpy is optional (the repro[fast] extra); whichever way this
        # interpreter has it, the flag must be usable for gating.
        assert isinstance(accel.HAVE_NUMPY, bool)
