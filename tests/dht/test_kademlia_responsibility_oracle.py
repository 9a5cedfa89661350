"""Kademlia responsibility against brute force over the membership.

The overlay finds the XOR-nearest member of a point by bisecting the point
into the sorted membership and jumping from neighbour to neighbour; a join's
affected set is the slice of members around the newcomer's nearest one.
These tests rank every member by XOR distance instead, on identifier spaces
from 3 to 160 bits and memberships of one, two and many nodes, at points
that include member ids and both ends of the space.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.kademlia import KademliaOverlay

BITS = [3, 8, 32, 64, 160]


def build(bits, members):
    overlay = KademliaOverlay(bits=bits, k=4, rng=random.Random(0))
    for member in sorted(members):
        overlay.add_node(member)
    return overlay


def memberships(bits):
    """One member, two, or up to 24 (leaving room for a newcomer)."""
    ids = st.integers(min_value=0, max_value=(1 << bits) - 1)
    many = min(24, (1 << bits) - 1)
    return st.one_of(st.sets(ids, min_size=1, max_size=1),
                     st.sets(ids, min_size=2, max_size=2),
                     st.sets(ids, min_size=3, max_size=many))


def points(bits, members):
    """Free points, member ids, and both ends of the space."""
    return st.one_of(st.integers(min_value=0, max_value=(1 << bits) - 1),
                     st.sampled_from(sorted(members)),
                     st.sampled_from([0, (1 << bits) - 1]))


def common_prefix(bits, first, second):
    return bits - (first ^ second).bit_length()


@pytest.mark.parametrize("bits", BITS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_responsible_and_runner_up_are_the_first_two_by_xor(bits, data):
    members = data.draw(memberships(bits))
    overlay = build(bits, members)
    for point in data.draw(st.lists(points(bits, members), min_size=1, max_size=8)):
        ranked = sorted(members, key=lambda member: member ^ point)
        assert overlay.responsible_for(point) == ranked[0], point
        expected = ranked[1] if len(ranked) > 1 else None
        assert overlay.next_responsible(point) == expected, point


@pytest.mark.parametrize("bits", BITS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_join_affects_exactly_the_members_sharing_the_longest_prefix(bits, data):
    members = data.draw(memberships(bits))
    newcomer = data.draw(points(bits, members).filter(lambda point: point not in members))
    overlay = build(bits, members)
    longest = max(common_prefix(bits, member, newcomer) for member in members)
    expected = {member for member in members
                if common_prefix(bits, member, newcomer) == longest}
    assert overlay.add_node(newcomer) == expected
