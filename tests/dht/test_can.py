"""Unit tests for the CAN overlay."""

from __future__ import annotations

import copy
import random

import pytest

from repro.dht.can import CanSpace, Zone
from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.model import DepartureReason


def build_space(num_nodes, bits=16, dimensions=2, seed=1):
    space = CanSpace(bits=bits, dimensions=dimensions, rng=random.Random(seed))
    rng = random.Random(seed + 1)
    for _ in range(num_nodes):
        node_id = rng.randrange(1 << bits)
        while node_id in space:
            node_id = rng.randrange(1 << bits)
        space.add_node(node_id)
    return space


class TestZone:
    def test_volume(self):
        zone = Zone(lo=(0, 0), hi=(4, 8))
        assert zone.volume == 32

    def test_contains_half_open(self):
        zone = Zone(lo=(0, 0), hi=(4, 4))
        assert zone.contains((0, 0))
        assert zone.contains((3, 3))
        assert not zone.contains((4, 0))

    def test_degenerate_zone_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Zone(lo=(0, 0), hi=(0, 4))

    def test_mismatched_dimensionality_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Zone(lo=(0,), hi=(4, 4))

    def test_split_halves_longest_dimension(self):
        zone = Zone(lo=(0, 0), hi=(8, 4))
        first, second = zone.split()
        assert first.volume + second.volume == zone.volume
        assert first.hi[0] == 4 and second.lo[0] == 4

    def test_split_too_small_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Zone(lo=(0, 0), hi=(1, 1)).split()

    def test_touching_zones_are_neighbors(self):
        left = Zone(lo=(0, 0), hi=(4, 4))
        right = Zone(lo=(4, 0), hi=(8, 4))
        far = Zone(lo=(9, 0), hi=(12, 4))
        assert left.touches(right)
        assert right.touches(left)
        assert not left.touches(far)

    def test_distance_to_inside_point_is_zero(self):
        zone = Zone(lo=(0, 0), hi=(4, 4))
        assert zone.distance_to((2, 2)) == 0.0
        assert zone.distance_to((10, 2)) > 0.0


class TestMembership:
    def test_first_node_owns_whole_space(self):
        space = CanSpace(bits=16, dimensions=2)
        space.add_node(7)
        assert space.owned_volume(7) == space.axis_size ** 2

    def test_join_splits_an_existing_zone(self):
        space = CanSpace(bits=16, dimensions=2, rng=random.Random(0))
        space.add_node(1)
        affected = space.add_node(2)
        assert affected == {1}
        total = space.owned_volume(1) + space.owned_volume(2)
        assert total == space.axis_size ** 2

    def test_duplicate_join_rejected(self):
        space = CanSpace(bits=16)
        space.add_node(1)
        with pytest.raises(NodeAlreadyPresentError):
            space.add_node(1)

    def test_volume_is_conserved_under_churn(self):
        space = build_space(30)
        rng = random.Random(9)
        for _ in range(10):
            victim = space.random_node(rng)
            space.remove_node(victim, reason=DepartureReason.FAIL)
        total = sum(space.owned_volume(node) for node in space.nodes())
        assert total == space.axis_size ** 2

    def test_departed_zone_goes_to_smallest_neighbor(self):
        space = CanSpace(bits=16, dimensions=2, rng=random.Random(3))
        for node_id in (1, 2, 3, 4, 5):
            space.add_node(node_id)
        victim = 3
        zone = space.zones_of(victim)[0]
        neighbors = [node for node in space.neighbors(victim)
                     if any(zone.touches(owned) for owned in space.zones_of(node))]
        expected = min(neighbors, key=lambda node: (space.owned_volume(node), node))
        space.remove_node(victim)
        assert any(owned == zone for owned in space.zones_of(expected))

    def test_remove_unknown_node_rejected(self):
        space = CanSpace(bits=16)
        with pytest.raises(NoSuchPeerError):
            space.remove_node(4)

    def test_departure_reason_recorded(self):
        space = build_space(5)
        victim = list(space.nodes())[0]
        space.remove_node(victim, reason=DepartureReason.FAIL)
        assert space.departure_reason(victim) == "fail"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            CanSpace(bits=16, dimensions=0)
        with pytest.raises(InvalidConfigurationError):
            CanSpace(bits=3, dimensions=2)


class TestResponsibility:
    def test_every_point_has_exactly_one_owner(self):
        space = build_space(20)
        rng = random.Random(4)
        for _ in range(100):
            point = rng.randrange(space.space_size)
            owner = space.responsible_for(point)
            coords = space.coordinates(point)
            owners = [node for node in space.nodes()
                      if any(zone.contains(coords) for zone in space.zones_of(node))]
            assert owners == [owner]

    def test_empty_space_raises(self):
        with pytest.raises(EmptyNetworkError):
            CanSpace(bits=16).responsible_for(5)

    def test_coordinates_pack_and_range(self):
        space = CanSpace(bits=16, dimensions=2)
        coords = space.coordinates(0xABCD)
        assert coords == (0xCD, 0xAB)
        assert all(0 <= value < space.axis_size for value in coords)

    def test_next_responsible_is_a_neighbor(self):
        space = build_space(20)
        rng = random.Random(5)
        for _ in range(20):
            point = rng.randrange(space.space_size)
            owner = space.responsible_for(point)
            next_owner = space.next_responsible(point)
            assert next_owner != owner
            assert next_owner in space.neighbors(owner) or next_owner in space.nodes()

    def test_takeover_after_failure_matches_next_responsible(self):
        space = build_space(15)
        rng = random.Random(6)
        point = rng.randrange(space.space_size)
        predicted = space.next_responsible(point)
        space.remove_node(space.responsible_for(point), reason=DepartureReason.FAIL)
        assert space.responsible_for(point) == predicted

    def test_next_responsible_predicts_every_zone_of_a_multi_zone_owner(self):
        # Departures leave some nodes owning several zones; a leaving owner
        # hands them out in order, so an earlier grant can change who wins
        # a later zone.  The prediction must follow that order.
        space = build_space(30)
        rng = random.Random(7)
        for _ in range(12):
            space.remove_node(space.random_node(rng))
        owners = [node for node in space.nodes() if len(space.zones_of(node)) > 1]
        assert owners
        for owner in owners:
            for zone in space.zones_of(owner):
                point = sum(low << (axis * space.bits_per_dimension)
                            for axis, low in enumerate(zone.lo))
                assert space.responsible_for(point) == owner
                predicted = space.next_responsible(point)
                after = copy.deepcopy(space)
                after.remove_node(owner)
                assert after.responsible_for(point) == predicted, (owner, zone)


class TestRouting:
    def test_route_ends_at_responsible(self):
        space = build_space(40)
        rng = random.Random(7)
        for _ in range(40):
            origin = space.random_node(rng)
            point = rng.randrange(space.space_size)
            route = space.route(origin, point)
            assert route.path[0] == origin
            assert route.path[-1] == space.responsible_for(point)

    def test_route_from_unknown_origin_raises(self):
        space = build_space(5)
        with pytest.raises(NoSuchPeerError):
            space.route(1 << 20, 5)

    def test_route_to_own_zone_is_free(self):
        space = build_space(10)
        rng = random.Random(8)
        point = rng.randrange(space.space_size)
        owner = space.responsible_for(point)
        route = space.route(owner, point)
        assert route.hops == 0

    def test_neighbors_are_symmetric(self):
        space = build_space(25)
        for node in space.nodes():
            for neighbor in space.neighbors(node):
                assert node in space.neighbors(neighbor)
