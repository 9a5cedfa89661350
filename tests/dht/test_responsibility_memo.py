"""Every overlay's point -> responsible memo against a fresh computation under churn.

A membership change evicts only the memo entries of the nodes that can have
lost points to it (the nodes a join returns, or the departed node), and a
Kademlia join reassigns the displaced nodes' entries in place instead.  These
tests drive random joins, leaves and failures interleaved with
``responsible_for`` and ``next_responsible`` over a fixed pool of points, and
after every step require:

* every memoised responsible to equal a fresh computation — the XOR-closest
  member for Kademlia, the first member at or after the point (wrapping) for
  Chord, and the linear zone scan for CAN;
* the reverse index to list each memoised point exactly once, under its
  memoised responsible.
"""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.errors import InvalidConfigurationError
from repro.dht.model import DepartureReason
from repro.dht.registry import create_overlay

BITS = [8, 32]
OVERLAYS = ["chord", "kademlia", "can"]


def fresh_responsible(name, overlay, point):
    """The responsible for ``point`` computed from the membership alone."""
    if name == "kademlia":
        return min(overlay.nodes(), key=lambda member: member ^ point)
    if name == "chord":
        members = sorted(overlay.nodes())
        index = bisect.bisect_left(members, point % overlay.space_size)
        return members[index % len(members)]
    coords = overlay.coordinates(point)
    owners = [node for node, zones in overlay._zones.items()
              if any(zone.contains(coords) for zone in zones)]
    assert len(owners) == 1, (point, owners)
    return owners[0]


def assert_memo_exact(name, overlay):
    cache, index = overlay._rsp_cache, overlay._rsp_points
    for point, responsible in cache.items():
        assert responsible == fresh_responsible(name, overlay, point), point
    listed = [point for points in index.values() for point in points]
    assert sorted(listed) == sorted(cache)
    for node, points in index.items():
        for point in points:
            assert cache[point] == node, (point, node)


#: One step: an action and a number it reads modulo what it needs.
steps = st.lists(
    st.tuples(st.sampled_from(["join", "join", "leave", "fail",
                               "responsible", "responsible", "next"]),
              st.integers(min_value=0, max_value=(1 << 32) - 1)),
    min_size=1, max_size=60)


@pytest.mark.parametrize("name", OVERLAYS)
@pytest.mark.parametrize("bits", BITS)
@given(steps=steps, pool_seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=40, deadline=None)
def test_the_memo_equals_a_fresh_computation_under_churn(name, bits, steps,
                                                         pool_seed):
    overlay = create_overlay(name, bits=bits, rng=random.Random(1))
    size = 1 << bits
    pool = random.Random(pool_seed).sample(range(size), 12)
    overlay.add_node(pool_seed % size)
    for action, number in steps:
        members = list(overlay.nodes())
        if action == "join":
            if number % size not in overlay:
                try:
                    overlay.add_node(number % size)
                except InvalidConfigurationError:
                    pass  # a CAN owner whose zones are all minimal refuses
        elif action in ("leave", "fail"):
            if members:
                reason = (DepartureReason.LEAVE if action == "leave"
                          else DepartureReason.FAIL)
                overlay.remove_node(members[number % len(members)], reason=reason)
        elif members:
            # Warm a run of the pool, so several entries sit under one node.
            for point in pool[number % len(pool):][:4]:
                if action == "responsible":
                    overlay.responsible_for(point)
                else:
                    overlay.next_responsible(point)
        assert_memo_exact(name, overlay)
        if not len(overlay):
            assert not overlay._rsp_cache and not overlay._rsp_points


@pytest.mark.parametrize("name", OVERLAYS)
def test_a_seeded_churn_keeps_the_memo_exact_and_warm(name):
    overlay = create_overlay(name, bits=32, rng=random.Random(7))
    rng = random.Random(8)
    for _ in range(64):
        overlay.add_node(rng.randrange(1 << 32))
    pool = [rng.randrange(1 << 32) for _ in range(400)]
    for point in pool:
        overlay.responsible_for(point)
    for event in range(40):
        victim = rng.choice(overlay.nodes())
        overlay.remove_node(victim, reason=(DepartureReason.FAIL if event % 2
                                            else DepartureReason.LEAVE))
        overlay.add_node(rng.randrange(1 << 32))
        assert_memo_exact(name, overlay)
        for point in rng.sample(pool, 20):
            overlay.responsible_for(point)
    # Two changes touch a few nodes' points: most of the memo survives them.
    before = len(overlay._rsp_cache)
    overlay.remove_node(rng.choice(overlay.nodes()))
    overlay.add_node(rng.randrange(1 << 32))
    assert len(overlay._rsp_cache) > before // 2
