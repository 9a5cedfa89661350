"""Property-based tests of the overlays' routing and responsibility invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.can import CanSpace
from repro.dht.chord import ChordRing
from repro.dht.model import DepartureReason

BITS = 12
SPACE = 1 << BITS

node_sets = st.sets(st.integers(min_value=0, max_value=SPACE - 1), min_size=2, max_size=40)
points = st.integers(min_value=0, max_value=SPACE - 1)


def build_chord(node_ids):
    ring = ChordRing(bits=BITS)
    for node_id in node_ids:
        ring.add_node(node_id)
    return ring


class TestChordProperties:
    @given(node_ids=node_sets, point=points)
    @settings(max_examples=80, deadline=None)
    def test_route_always_reaches_the_responsible(self, node_ids, point):
        ring = build_chord(node_ids)
        origin = sorted(node_ids)[0]
        route = ring.route(origin, point)
        assert route.path[-1] == ring.responsible_for(point)

    @given(node_ids=node_sets, point=points)
    @settings(max_examples=80, deadline=None)
    def test_responsible_is_a_live_node(self, node_ids, point):
        ring = build_chord(node_ids)
        assert ring.responsible_for(point) in node_ids

    @given(node_ids=node_sets, point=points)
    @settings(max_examples=60, deadline=None)
    def test_responsibility_partition_is_consistent(self, node_ids, point):
        # The responsible for a point is the unique node whose arc contains it:
        # no other node is "closer" in the successor sense.
        ring = build_chord(node_ids)
        responsible = ring.responsible_for(point)
        clockwise_distance = (responsible - point) % SPACE
        for other in node_ids:
            assert (other - point) % SPACE >= clockwise_distance

    @given(node_ids=st.sets(st.integers(min_value=0, max_value=SPACE - 1),
                            min_size=3, max_size=40),
           point=points)
    @settings(max_examples=60, deadline=None)
    def test_departure_promotes_the_next_responsible(self, node_ids, point):
        ring = build_chord(node_ids)
        predicted = ring.next_responsible(point)
        ring.remove_node(ring.responsible_for(point), reason=DepartureReason.LEAVE)
        assert ring.responsible_for(point) == predicted

    @given(node_ids=node_sets, point=points, extra=points)
    @settings(max_examples=60, deadline=None)
    def test_join_only_moves_keys_to_the_new_node(self, node_ids, point, extra):
        ring = build_chord(node_ids)
        before = ring.responsible_for(point)
        newcomer = extra
        if newcomer in node_ids:
            return
        ring.add_node(newcomer)
        after = ring.responsible_for(point)
        assert after in (before, newcomer)


class TestCanProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_nodes=st.integers(min_value=2, max_value=25),
           point=points)
    @settings(max_examples=40, deadline=None)
    def test_route_always_reaches_the_responsible(self, seed, num_nodes, point):
        space = CanSpace(bits=BITS, dimensions=2, rng=random.Random(seed))
        rng = random.Random(seed + 1)
        for _ in range(num_nodes):
            node_id = rng.randrange(SPACE)
            while node_id in space:
                node_id = rng.randrange(SPACE)
            space.add_node(node_id)
        origin = rng.choice(space.nodes())
        route = space.route(origin, point)
        assert route.path[-1] == space.responsible_for(point)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_nodes=st.integers(min_value=2, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_zones_partition_the_space(self, seed, num_nodes):
        space = CanSpace(bits=BITS, dimensions=2, rng=random.Random(seed))
        rng = random.Random(seed + 1)
        for _ in range(num_nodes):
            node_id = rng.randrange(SPACE)
            while node_id in space:
                node_id = rng.randrange(SPACE)
            space.add_node(node_id)
        total = sum(space.owned_volume(node) for node in space.nodes())
        assert total == space.axis_size ** space.dimensions
