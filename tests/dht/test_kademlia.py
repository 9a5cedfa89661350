"""Unit and property tests for the Kademlia overlay (XOR metric, k-buckets)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.kademlia import KademliaOverlay, RoutingTable
from repro.dht.model import DepartureReason

BITS = 12
SPACE = 1 << BITS

node_sets = st.sets(st.integers(min_value=0, max_value=SPACE - 1), min_size=2, max_size=40)
points = st.integers(min_value=0, max_value=SPACE - 1)


def build_overlay(node_ids, *, bits=BITS, k=4, seed=0):
    overlay = KademliaOverlay(bits=bits, k=k, rng=random.Random(seed))
    for node_id in sorted(node_ids):
        overlay.add_node(node_id)
    return overlay


class TestBucketRules:
    """Kademlia's bucket rules, as ``RoutingTable`` applies them to one row.

    With owner 0 in an 8-bit space, bucket 7 holds every contact in
    ``[128, 256)``; ``ROW + n`` stands for contact ``n`` of that one bucket.
    """

    ROW = 128

    def everyone_alive(self, contact):
        return True

    def nobody_alive(self, contact):
        return False

    def table(self, capacity, contacts=()):
        table = RoutingTable(owner=0, bits=8, k=capacity)
        for contact in contacts:
            assert table.learn(self.ROW + contact)
        return table

    def row(self, table):
        return [contact - self.ROW for contact in table.bucket(7)]

    def test_new_contacts_append_in_seen_order(self):
        table = self.table(capacity=3)
        for contact in (1, 2, 3):
            assert table.observe(self.ROW + contact, self.everyone_alive)
        assert self.row(table) == [1, 2, 3]

    def test_observing_a_known_contact_moves_it_to_the_tail(self):
        table = self.table(capacity=3, contacts=[1, 2, 3])
        table.observe(self.ROW + 1, self.everyone_alive)
        assert self.row(table) == [2, 3, 1]

    def test_full_bucket_with_live_lrs_drops_the_newcomer(self):
        table = self.table(capacity=3, contacts=[1, 2, 3])
        accepted = table.observe(self.ROW + 99, self.everyone_alive)
        assert not accepted
        assert 99 not in self.row(table)
        # The pinged least-recently-seen contact moved to the tail.
        assert self.row(table) == [2, 3, 1]

    def test_full_bucket_with_departed_lrs_evicts_it(self):
        table = self.table(capacity=3, contacts=[1, 2, 3])
        accepted = table.observe(self.ROW + 99, self.nobody_alive)
        assert accepted
        assert self.row(table) == [2, 3, 99]

    def test_eviction_targets_the_least_recently_seen(self):
        table = self.table(capacity=2, contacts=[1, 2])
        table.observe(self.ROW + 1, self.everyone_alive)       # seen order now [2, 1]
        table.observe(self.ROW + 99, lambda contact: contact != self.ROW + 2)
        assert self.row(table) == [1, 99]

    def test_learned_contacts_never_displace_entries(self):
        table = self.table(capacity=2, contacts=[1, 2])
        assert not table.learn(self.ROW + 99)
        assert self.row(table) == [1, 2]
        assert table.learn(self.ROW + 1)  # already present
        table.discard(self.ROW + 2)
        assert table.learn(self.ROW + 99)
        assert self.row(table) == [1, 99]


class TestRoutingTable:
    def test_own_identifier_is_rejected(self):
        table = RoutingTable(owner=5, bits=8, k=4)
        assert not table.observe(5, lambda contact: True)
        assert len(table) == 0

    def test_contacts_split_across_buckets(self):
        table = RoutingTable(owner=0, bits=8, k=4)
        for contact in (1, 2, 3, 128, 129):
            table.observe(contact, lambda c: True)
        assert set(table.contacts()) == {1, 2, 3, 128, 129}
        assert table.bucket(7) == [128, 129]

    def test_bucket_index_is_the_distance_magnitude(self):
        table = RoutingTable(owner=0b1010_0000, bits=8, k=256)
        rng = random.Random(4)
        contacts = rng.sample([c for c in range(256) if c != table.owner], 40)
        for contact in contacts:
            table.observe(contact, lambda c: True)
        for contact in contacts:
            # Bucket i holds the contacts at XOR distance [2^i, 2^(i+1)).
            index = (table.owner ^ contact).bit_length() - 1
            assert contact in table.bucket(index)

    def test_bucket_is_a_detached_snapshot(self):
        table = RoutingTable(owner=0, bits=8, k=4)
        for contact in (3, 5, 9, 130):
            table.learn(contact)
        snapshot = table.bucket(7)  # 130 is at distance [128, 256)
        assert snapshot == [130]
        # Mutating a snapshot must not write back, and reading an empty
        # bucket must not create a row.
        snapshot.append(200)
        assert 200 not in table.contacts()
        assert table.bucket(6) == []
        assert 6 not in table._rows

    def test_closest_orders_by_xor_distance(self):
        table = RoutingTable(owner=0, bits=8, k=8)
        for contact in (1, 64, 130, 7):
            table.observe(contact, lambda c: True)
        # distances to 129: 130 -> 3, 1 -> 128, 7 -> 134, 64 -> 193
        assert table.closest(129, 2) == [130, 1]


class TestMembership:
    def test_rejects_bad_configuration(self):
        with pytest.raises(InvalidConfigurationError):
            KademliaOverlay(bits=2)
        with pytest.raises(InvalidConfigurationError):
            KademliaOverlay(k=0)

    def test_rejects_out_of_space_identifiers(self):
        overlay = KademliaOverlay(bits=8)
        with pytest.raises(InvalidConfigurationError):
            overlay.add_node(256)

    def test_duplicate_join_rejected(self):
        overlay = build_overlay({1, 2})
        with pytest.raises(NodeAlreadyPresentError):
            overlay.add_node(1)

    def test_remove_unknown_node_rejected(self):
        overlay = build_overlay({1, 2})
        with pytest.raises(NoSuchPeerError):
            overlay.remove_node(99)

    def test_nodes_are_sorted_and_membership_tracked(self):
        overlay = build_overlay({9, 3, 200})
        assert overlay.nodes() == (3, 9, 200)
        assert 9 in overlay and 10 not in overlay
        assert len(overlay) == 3

    def test_departure_reason_recorded(self):
        overlay = build_overlay({1, 2, 3})
        overlay.remove_node(1, reason=DepartureReason.LEAVE)
        overlay.remove_node(2, reason=DepartureReason.FAIL)
        assert overlay.departure_reason(1) == "leave"
        assert overlay.departure_reason(2) == "fail"
        assert overlay.departure_reason(3) is None

    def test_empty_overlay_has_no_responsible(self):
        overlay = KademliaOverlay(bits=BITS)
        with pytest.raises(EmptyNetworkError):
            overlay.responsible_for(0)


class TestResponsibility:
    def test_responsible_is_the_xor_closest_node(self):
        overlay = build_overlay({0b000000000001, 0b100000000000, 0b011111111111})
        point = 0b100000000001
        expected = min(overlay.nodes(), key=lambda node: node ^ point)
        assert overlay.responsible_for(point) == expected

    def test_next_responsible_is_the_runner_up(self):
        node_ids = {5, 90, 700, 2000, 4000}
        overlay = build_overlay(node_ids)
        point = 91
        ranked = sorted(node_ids, key=lambda node: node ^ point)
        assert overlay.responsible_for(point) == ranked[0]
        assert overlay.next_responsible(point) == ranked[1]

    def test_next_responsible_none_for_singleton(self):
        overlay = build_overlay({42})
        assert overlay.next_responsible(0) is None

    def test_join_reports_the_deepest_bucket_as_affected(self):
        overlay = build_overlay({0b000000000000, 0b000000000010, 0b100000000000})
        # The newcomer 0b01 shares 11 prefix bits with node 0b00 but only 10
        # with 0b10: only the deepest sibling subtree {0b00} can lose points.
        affected = overlay.add_node(0b000000000001)
        assert affected == {0b000000000000}
        # A newcomer attaching one level higher reports both shallow siblings.
        overlay2 = build_overlay({0b000000000000, 0b000000000001, 0b100000000000})
        assert overlay2.add_node(0b000000000010) == {0b000000000000,
                                                     0b000000000001}

    def test_neighbors_are_live_routing_contacts(self):
        overlay = build_overlay(set(range(0, 32, 2)), bits=8, k=4)
        node = 0
        neighbor_set = overlay.neighbors(node)
        assert node not in neighbor_set
        assert neighbor_set <= set(overlay.nodes())
        with pytest.raises(NoSuchPeerError):
            overlay.neighbors(999)


class TestRouting:
    def test_route_reaches_the_responsible(self):
        overlay = build_overlay(random.Random(5).sample(range(SPACE), 30))
        rng = random.Random(6)
        for _ in range(50):
            origin = rng.choice(overlay.nodes())
            point = rng.randrange(SPACE)
            route = overlay.route(origin, point)
            assert route.path[0] == origin
            assert route.path[-1] == overlay.responsible_for(point)
            assert route.responsible == route.path[-1]

    def test_route_from_unknown_origin_rejected(self):
        overlay = build_overlay({1, 2})
        with pytest.raises(NoSuchPeerError):
            overlay.route(99, 0)

    def test_lookup_cost_grows_logarithmically(self):
        rng = random.Random(11)
        averages = {}
        for population in (16, 256):
            overlay = build_overlay(rng.sample(range(SPACE), population), k=8,
                                    seed=population)
            hops = []
            for _ in range(40):
                origin = rng.choice(overlay.nodes())
                hops.append(overlay.route(origin, rng.randrange(SPACE)).hops)
            averages[population] = sum(hops) / len(hops)
        # A 16x larger population must not cost anywhere near 16x the hops.
        assert averages[256] <= 4 * max(averages[16], 1.0)

    def test_stale_contacts_cost_retries_and_failures_cost_timeouts(self):
        overlay = build_overlay(random.Random(9).sample(range(SPACE), 24), k=4)
        rng = random.Random(10)
        # Depart half the population without letting anyone clean their buckets.
        victims = list(overlay.nodes())[::2]
        for index, victim in enumerate(victims):
            reason = DepartureReason.FAIL if index % 2 else DepartureReason.LEAVE
            overlay.remove_node(victim, reason=reason)
        retries = 0
        timeouts = 0
        for _ in range(60):
            origin = rng.choice(overlay.nodes())
            point = rng.randrange(SPACE)
            route = overlay.route(origin, point)
            retries += route.retries
            timeouts += route.timeouts
            assert route.path[-1] == overlay.responsible_for(point)
        assert retries > 0
        assert timeouts <= retries
        assert timeouts > 0

    def test_routing_prunes_departed_contacts(self):
        overlay = build_overlay(random.Random(21).sample(range(SPACE), 16), k=8)
        origin, victim = overlay.nodes()[0], overlay.nodes()[5]
        overlay.routing_table(origin).observe(victim, lambda contact: True)
        overlay.remove_node(victim, reason=DepartureReason.FAIL)
        assert victim in overlay.routing_table(origin).contacts()
        # The victim's own identifier is the closest candidate, so the lookup
        # queries it, pays a retry + timeout, and drops it from the bucket.
        route = overlay.route(origin, victim)
        assert route.retries >= 1
        assert route.timeouts >= 1
        assert victim not in overlay.routing_table(origin).contacts()


def hand_built_overlay(tables, *, k=3):
    """An 8-bit overlay whose routing tables hold exactly ``tables``, in order."""
    overlay = KademliaOverlay(bits=8, k=k, rng=random.Random(0))
    for node_id in sorted({*tables, *(c for row in tables.values() for c in row)}):
        overlay.add_node(node_id)
    for node_id in overlay.nodes():
        table = overlay._tables[node_id] = RoutingTable(node_id, 8, k)
        for contact in tables.get(node_id, ()):
            assert table.observe(contact, overlay.__contains__)
    return overlay


class TestFullBucketSkip:
    """A reply inside the origin's target bucket is learned unless that bucket is full.

    The origin is 0 and every target has its top bit set, so the origin's
    bucket 7 holds every contact nearer to the target than ``2^7``.  Node 192
    answers with 193, 194 and 195, all inside that bucket.
    """

    REPLIER = {192: [193, 194, 195]}

    def test_a_bucket_one_short_of_full_learns_the_reply(self):
        overlay = hand_built_overlay({0: [160, 192], **self.REPLIER})
        path, retries, _ = overlay._iterative_lookup(0, 192, self_distance=192)
        assert (path, retries) == ([0, 192], 0)
        assert overlay.routing_table(0).bucket(7) == [160, 192, 193]

    def test_a_full_bucket_is_left_unchanged(self):
        overlay = hand_built_overlay({0: [160, 161, 192], **self.REPLIER})
        path, retries, _ = overlay._iterative_lookup(0, 192, self_distance=192)
        assert (path, retries) == ([0, 192], 0)
        assert overlay.routing_table(0).contacts() == [160, 161, 192]

    def test_a_bucket_emptied_mid_lookup_learns_the_next_reply(self):
        # 197 is the nearest contact to the target 196; it has failed, so the
        # lookup discards it from the full bucket before querying 192.
        overlay = hand_built_overlay({0: [197, 160, 192], **self.REPLIER})
        overlay.remove_node(197, reason=DepartureReason.FAIL)
        path, retries, timeouts = overlay._iterative_lookup(0, 196, self_distance=196)
        assert (path, retries, timeouts) == ([0, 192], 1, 1)
        assert overlay.routing_table(0).contacts() == [160, 192, 193]


class TestKademliaProperties:
    @given(node_ids=node_sets, point=points)
    @settings(max_examples=60, deadline=None)
    def test_route_always_reaches_the_responsible(self, node_ids, point):
        overlay = build_overlay(node_ids)
        origin = sorted(node_ids)[0]
        route = overlay.route(origin, point)
        assert route.path[-1] == overlay.responsible_for(point)

    @given(node_ids=node_sets, point=points)
    @settings(max_examples=60, deadline=None)
    def test_responsible_is_a_live_node(self, node_ids, point):
        overlay = build_overlay(node_ids)
        assert overlay.responsible_for(point) in node_ids

    @given(node_ids=st.sets(st.integers(min_value=0, max_value=SPACE - 1),
                            min_size=3, max_size=40),
           point=points)
    @settings(max_examples=60, deadline=None)
    def test_departure_promotes_the_next_responsible(self, node_ids, point):
        overlay = build_overlay(node_ids)
        predicted = overlay.next_responsible(point)
        overlay.remove_node(overlay.responsible_for(point),
                            reason=DepartureReason.LEAVE)
        assert overlay.responsible_for(point) == predicted

    @given(node_ids=st.sets(st.integers(min_value=0, max_value=255),
                            min_size=1, max_size=14),
           newcomer=st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_affected_set_covers_every_stolen_point(self, node_ids, newcomer):
        # Exhaustive over an 8-bit space: every identifier point the newcomer
        # steals must come from a node reported as affected.
        if newcomer in node_ids:
            return
        overlay = build_overlay(node_ids, bits=8)
        before = {point: overlay.responsible_for(point) for point in range(256)}
        affected = overlay.add_node(newcomer)
        assert affected <= set(node_ids)
        for point in range(256):
            after = overlay.responsible_for(point)
            if after == newcomer:
                assert before[point] in affected | {newcomer}
            else:
                assert after == before[point]
