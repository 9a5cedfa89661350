"""The split-tree ``CanSpace._owner_of`` against the retained linear-scan oracle.

The oracle below is the point-ownership lookup the object CAN space shipped
until 1.12.0: scan every node's zones for the one containing the point.  The
space itself now descends the canonical split tree through a packed
zone-bounds -> owner index; these tests drive joins, leaves and failures for
several (``bits``, ``dimensions``) shapes — including ``bits`` not divisible
by ``dimensions`` and ``bits`` beyond 64 — and require the two lookups to
agree, and the index to mirror the zone table, after every step.

The same churn also checks ``next_responsible`` against its plainest oracle:
remove the owner from a copy of the space and ask who owns the point now.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.can import CanSpace
from repro.dht.errors import EmptyNetworkError, InvalidConfigurationError

#: (bits, dimensions): divisible and not, narrow and wider than 64 bits.
SHAPES = [(8, 2), (9, 2), (16, 3), (32, 4), (64, 2), (65, 5), (96, 3),
          (130, 4), (160, 2)]


def linear_owner_of(space, coords):
    """1.12.0 ``CanSpace._owner_of``, verbatim."""
    for node_id, zones in space._zones.items():
        for zone in zones:
            if zone.contains(coords):
                return node_id
    raise EmptyNetworkError("the CAN space has no live nodes")


def assert_index_mirrors_zones(space):
    """Exactly the live zones are indexed, each under its owner."""
    zones = [(owner, zone) for owner, owned in space._zones.items()
             for zone in owned]
    assert len(space._zone_owner) == len(zones)
    for owner, zone in zones:
        assert space._zone_owner[space._pack_zone(zone)] == owner


def assert_owners_agree(space, coords):
    assert space._owner_of(coords) == linear_owner_of(space, coords), coords


def join(space, node_id):
    """Add ``node_id``; a space too fine-grained to split refuses the join."""
    try:
        space.add_node(node_id)
    except InvalidConfigurationError:
        pass  # the owner's zones are all minimal; the zone table is unchanged


#: One churn step: an action and two numbers it reads modulo what it needs.
steps = st.lists(
    st.tuples(st.sampled_from(["join", "join", "join", "leave", "fail"]),
              st.integers(min_value=0, max_value=(1 << 130) - 1),
              st.integers(min_value=0, max_value=(1 << 130) - 1)),
    min_size=1, max_size=40)


@pytest.mark.parametrize("bits,dimensions", SHAPES)
@given(steps=steps)
@settings(max_examples=25, deadline=None)
def test_split_tree_descent_equals_the_linear_scan_under_churn(bits, dimensions,
                                                               steps):
    space = CanSpace(bits=bits, dimensions=dimensions, rng=random.Random(1))
    size = 1 << bits
    space.add_node(steps[0][1] % size)
    for action, first, second in steps:
        members = list(space.nodes())
        if action == "join" and first % size not in space:
            join(space, first % size)
        elif action in ("leave", "fail") and len(members) > 1:
            space.remove_node(members[first % len(members)], reason=action)
        assert_index_mirrors_zones(space)
        members = list(space.nodes())
        # Two free points, and the corners of one member's zones (the
        # descent's edge cases: the lowest and the highest cell of a zone).
        for point in (first, second):
            assert_owners_agree(space, space.coordinates(point))
        for zone in space.zones_of(members[second % len(members)]):
            assert_owners_agree(space, zone.lo)
            assert_owners_agree(space, tuple(high - 1 for high in zone.hi))


@pytest.mark.parametrize("bits,dimensions", SHAPES)
@given(steps=steps)
@settings(max_examples=15, deadline=None)
def test_next_responsible_equals_the_owner_after_its_departure(bits, dimensions,
                                                               steps):
    space = CanSpace(bits=bits, dimensions=dimensions, rng=random.Random(1))
    size = 1 << bits
    space.add_node(steps[0][1] % size)
    for action, first, second in steps:
        members = list(space.nodes())
        if action == "join" and first % size not in space:
            join(space, first % size)
        elif action in ("leave", "fail") and len(members) > 1:
            space.remove_node(members[first % len(members)], reason=action)
        if len(space) < 2:
            assert space.next_responsible(first) is None
            continue
        for point in (first % size, second % size):
            owner = space.responsible_for(point)
            predicted = space.next_responsible(point)
            after = copy.deepcopy(space)
            after.remove_node(owner, reason=action)
            assert after.responsible_for(point) == predicted, point


def test_an_empty_space_has_no_owner():
    space = CanSpace(bits=16, dimensions=2, rng=random.Random(2))
    with pytest.raises(EmptyNetworkError):
        space._owner_of((0, 0))
    space.add_node(7)
    space.remove_node(7)
    with pytest.raises(EmptyNetworkError):
        space._owner_of((0, 0))
    assert space._zone_owner == {}


def test_zone_index_mirrors_the_zone_table_under_seeded_churn():
    space = CanSpace(bits=16, dimensions=2, rng=random.Random(8))
    rng = random.Random(9)
    members = []
    for _ in range(120):
        if members and rng.random() < 0.35:
            space.remove_node(members.pop(rng.randrange(len(members))))
        else:
            node_id = rng.randrange(1 << 16)
            if node_id in space:
                continue
            space.add_node(node_id)
            members.append(node_id)
        assert_index_mirrors_zones(space)
    for _ in range(80):
        assert_owners_agree(space, space.coordinates(rng.randrange(1 << 16)))


def test_packed_zone_keys_are_unique_per_zone():
    space = CanSpace(bits=16, dimensions=2, rng=random.Random(4))
    for node_id in range(0, 4000, 67):
        space.add_node(node_id)
    keys = [space._pack_zone(zone)
            for zones in space._zones.values() for zone in zones]
    assert len(keys) == len(set(keys))
