"""Unit tests for the Chord overlay."""

from __future__ import annotations

import math
import random

import pytest

from repro.dht.chord import ChordRing
from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.model import DepartureReason


def build_ring(node_ids, bits=8, **kwargs):
    ring = ChordRing(bits=bits, **kwargs)
    for node_id in node_ids:
        ring.add_node(node_id)
    return ring


class TestMembership:
    def test_add_and_contains(self):
        ring = build_ring([10, 200, 150])
        assert 10 in ring and 200 in ring
        assert 11 not in ring
        assert len(ring) == 3
        assert list(ring.nodes()) == [10, 150, 200]

    def test_duplicate_add_rejected(self):
        ring = build_ring([10])
        with pytest.raises(NodeAlreadyPresentError):
            ring.add_node(10)

    def test_node_id_out_of_space_rejected(self):
        ring = ChordRing(bits=8)
        with pytest.raises(InvalidConfigurationError):
            ring.add_node(256)

    def test_remove_unknown_node_rejected(self):
        ring = build_ring([10])
        with pytest.raises(NoSuchPeerError):
            ring.remove_node(99)

    def test_remove_records_departure_reason(self):
        ring = build_ring([10, 20, 30])
        ring.remove_node(10, reason=DepartureReason.LEAVE)
        ring.remove_node(20, reason=DepartureReason.FAIL)
        assert ring.departure_reason(10) == "leave"
        assert ring.departure_reason(20) == "fail"
        assert ring.departure_reason(30) is None

    def test_rejoin_clears_departure_record(self):
        ring = build_ring([10, 20])
        ring.remove_node(10, reason=DepartureReason.FAIL)
        ring.add_node(10)
        assert ring.departure_reason(10) is None

    def test_first_join_affects_nobody(self):
        ring = ChordRing(bits=8)
        assert ring.add_node(100) == set()

    def test_join_affects_the_successor(self):
        ring = build_ring([50, 150])
        affected = ring.add_node(100)
        # Keys in (50, 100] move from 150 to 100, so 150 is the affected node.
        assert affected == {150}

    def test_invalid_bits_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ChordRing(bits=1)
        with pytest.raises(InvalidConfigurationError):
            ChordRing(bits=8, stabilization_interval=-1)


class TestResponsibility:
    def test_successor_is_first_node_at_or_after_point(self):
        ring = build_ring([10, 100, 200])
        assert ring.successor(5) == 10
        assert ring.successor(10) == 10
        assert ring.successor(11) == 100
        assert ring.successor(150) == 200

    def test_successor_wraps_around(self):
        ring = build_ring([10, 100, 200])
        assert ring.successor(201) == 10
        assert ring.successor(255) == 10

    def test_predecessor_wraps_around(self):
        ring = build_ring([10, 100, 200])
        assert ring.predecessor(10) == 200
        assert ring.predecessor(100) == 10

    def test_responsible_for_matches_successor(self):
        ring = build_ring([10, 100, 200])
        for point in (0, 10, 57, 130, 230):
            assert ring.responsible_for(point) == ring.successor(point)

    def test_empty_ring_raises(self):
        ring = ChordRing(bits=8)
        with pytest.raises(EmptyNetworkError):
            ring.responsible_for(3)

    def test_next_responsible_is_the_successor_of_the_responsible(self):
        ring = build_ring([10, 100, 200])
        # point 57 -> responsible 100; if 100 departed, 200 would take over.
        assert ring.next_responsible(57) == 200

    def test_next_responsible_is_a_neighbor_of_the_responsible(self):
        # The property of Section 4.2.1 that makes the direct algorithm O(1).
        ring = build_ring(random.Random(3).sample(range(256), 20))
        for point in range(0, 256, 17):
            responsible = ring.responsible_for(point)
            next_responsible = ring.next_responsible(point)
            assert next_responsible in ring.neighbors(responsible)

    def test_next_responsible_none_for_single_node(self):
        ring = build_ring([10])
        assert ring.next_responsible(5) is None

    def test_takeover_after_departure_matches_next_responsible(self):
        ring = build_ring([10, 100, 200])
        point = 57
        predicted = ring.next_responsible(point)
        ring.remove_node(ring.responsible_for(point))
        assert ring.responsible_for(point) == predicted


class TestNeighborsAndSuccessorList:
    def test_neighbors_include_successor_and_predecessor(self):
        ring = build_ring([10, 100, 200])
        assert {200, 100} <= ring.neighbors(10) | {100, 200}
        assert ring.successor(11) in ring.neighbors(10)
        assert ring.predecessor(10) in ring.neighbors(10)

    def test_neighbors_exclude_self(self):
        ring = build_ring([10, 100, 200])
        assert 10 not in ring.neighbors(10)

    def test_single_node_has_no_neighbors(self):
        ring = build_ring([10])
        assert ring.neighbors(10) == set()

    def test_neighbors_unknown_node_raises(self):
        ring = build_ring([10])
        with pytest.raises(NoSuchPeerError):
            ring.neighbors(99)


class TestRouting:
    def test_route_ends_at_responsible(self):
        ring = build_ring(random.Random(1).sample(range(4096), 64), bits=12)
        rng = random.Random(2)
        for _ in range(50):
            origin = rng.choice(ring.nodes())
            point = rng.randrange(4096)
            route = ring.route(origin, point)
            assert route.path[0] == origin
            assert route.path[-1] == ring.responsible_for(point)
            assert route.responsible == ring.responsible_for(point)

    def test_route_from_unknown_origin_raises(self):
        ring = build_ring([10, 20])
        with pytest.raises(NoSuchPeerError):
            ring.route(99, 5)

    def test_route_to_own_range_has_zero_hops(self):
        ring = build_ring([10, 100, 200])
        route = ring.route(100, 57)
        assert route.hops == 0
        assert route.path == (100,)

    def test_route_visits_each_node_at_most_once(self):
        ring = build_ring(random.Random(5).sample(range(65536), 200), bits=16)
        rng = random.Random(6)
        for _ in range(30):
            route = ring.route(rng.choice(ring.nodes()), rng.randrange(65536))
            assert len(set(route.path)) == len(route.path)

    def test_route_length_is_logarithmic(self):
        ring = build_ring(random.Random(7).sample(range(1 << 20), 512), bits=20)
        rng = random.Random(8)
        hops = [ring.route(rng.choice(ring.nodes()), rng.randrange(1 << 20)).hops
                for _ in range(100)]
        average = sum(hops) / len(hops)
        # Chord's average path length is ~0.5*log2(n) = 4.5; allow generous slack.
        assert average <= 2 * math.log2(512)
        assert max(hops) <= 20

    def test_route_with_no_churn_has_no_retries(self):
        ring = build_ring(random.Random(9).sample(range(4096), 64), bits=12)
        rng = random.Random(10)
        for _ in range(20):
            route = ring.route(rng.choice(ring.nodes()), rng.randrange(4096))
            assert route.retries == 0
            assert route.timeouts == 0


class TestStaleFingers:
    def build_churned_ring(self):
        ring = build_ring(random.Random(11).sample(range(65536), 128), bits=16,
                          stabilization_interval=1e9)
        rng = random.Random(12)
        # Warm every node's finger table at time 0.
        for node in ring.nodes():
            ring.finger_table(node, now=0.0)
        return ring, rng

    def test_failed_fingers_cause_timeouts(self):
        ring, rng = self.build_churned_ring()
        victims = random.Random(13).sample(list(ring.nodes()), 40)
        for victim in victims:
            ring.remove_node(victim, reason=DepartureReason.FAIL, now=1.0)
        timeouts = 0
        for _ in range(60):
            route = ring.route(rng.choice(ring.nodes()), rng.randrange(65536), now=2.0)
            timeouts += route.timeouts
            assert route.path[-1] == route.responsible
        assert timeouts > 0

    def test_normal_leaves_cause_retries_but_no_timeouts(self):
        ring, rng = self.build_churned_ring()
        victims = random.Random(14).sample(list(ring.nodes()), 40)
        for victim in victims:
            ring.remove_node(victim, reason=DepartureReason.LEAVE, now=1.0)
        retries = 0
        timeouts = 0
        for _ in range(60):
            route = ring.route(rng.choice(ring.nodes()), rng.randrange(65536), now=2.0)
            retries += route.retries
            timeouts += route.timeouts
        assert retries > 0
        assert timeouts == 0

    def test_stabilization_clears_stale_fingers(self):
        ring = build_ring(random.Random(15).sample(range(65536), 128), bits=16,
                          stabilization_interval=30.0)
        rng = random.Random(16)
        for node in ring.nodes():
            ring.finger_table(node, now=0.0)
        for victim in random.Random(17).sample(list(ring.nodes()), 40):
            ring.remove_node(victim, reason=DepartureReason.FAIL, now=1.0)
        # Route long after the stabilisation interval: tables refresh lazily and
        # no stale entries remain.
        retries = sum(ring.route(rng.choice(ring.nodes()), rng.randrange(65536), now=100.0).retries
                      for _ in range(40))
        assert retries == 0

    def test_finger_table_entries_are_live_after_refresh(self):
        ring = build_ring(random.Random(21).sample(range(65536), 128), bits=16,
                          stabilization_interval=30.0)
        node = ring.nodes()[0]
        ring.finger_table(node, now=0.0)
        for victim in ring.nodes()[50:70]:
            ring.remove_node(victim, reason=DepartureReason.FAIL, now=1.0)
        # Inside the interval the table is the stale snapshot; past it, the
        # lazy stabilisation recomputes it over live members only.
        assert not all(f in ring for f in ring.finger_table(node, now=2.0))
        assert all(f in ring for f in ring.finger_table(node, now=31.0))

    def test_zero_stabilization_interval_always_fresh(self):
        ring = build_ring(random.Random(18).sample(range(65536), 64), bits=16,
                          stabilization_interval=0.0)
        rng = random.Random(19)
        for victim in random.Random(20).sample(list(ring.nodes()), 20):
            ring.remove_node(victim, reason=DepartureReason.FAIL, now=0.0)
        for _ in range(20):
            route = ring.route(rng.choice(ring.nodes()), rng.randrange(65536), now=0.0)
            assert route.retries == 0


class TestClaimedSpan:
    def test_every_point_in_span_maps_to_the_node(self):
        ring = ChordRing(bits=8, rng=random.Random(1))
        for node in (10, 60, 130, 200, 250):
            ring.add_node(node)
        for node in (10, 60, 130, 200, 250):
            lo, hi = ring.claimed_span(node)
            assert hi == node
            # Walk the wrapping interval (lo, hi] exhaustively (8-bit space).
            point = (lo + 1) % ring.space_size
            while True:
                assert ring.responsible_for(point) == node
                if point == hi:
                    break
                point = (point + 1) % ring.space_size
            # The point just past the span belongs to someone else.
            assert ring.responsible_for((hi + 1) % ring.space_size) != node

    def test_single_member_owns_everything(self):
        ring = ChordRing(bits=8, rng=random.Random(1))
        ring.add_node(42)
        assert ring.claimed_span(42) is None

    def test_unknown_node_raises(self):
        ring = ChordRing(bits=8, rng=random.Random(1))
        ring.add_node(42)
        with pytest.raises(NoSuchPeerError):
            ring.claimed_span(7)


class TestMembershipVersion:
    def test_version_advances_and_invalidate_caches(self):
        ring = ChordRing(bits=8, rng=random.Random(1))
        ring.add_node(10)
        ring.add_node(200)
        version = ring.version
        assert ring.responsible_for(50) == 200
        ring.add_node(100)
        assert ring.version == version + 1
        # The cached successor for point 50 must have been invalidated.
        assert ring.responsible_for(50) == 100
        ring.remove_node(100)
        assert ring.version == version + 2
        assert ring.responsible_for(50) == 200
