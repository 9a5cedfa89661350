"""The bisect ``ChordRing._next_hop`` against the retained linear-scan oracle.

The oracle below is the finger scan the ring shipped until 1.8.0: test every
finger for membership of the clockwise-open interval ``(current, point)``,
count the departed ones as retries/timeouts, keep the live one closest to the
point.  The ring itself now bisects a per-table offset column; these tests
drive churn with a positive stabilisation interval (so tables go stale and
point at departed or re-joined ids) and require the two to agree hop for hop.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.model import DepartureReason
from repro.dht.registry import create_overlay

INTERVAL = 30.0
RINGS = [("object", 8), ("object", 32), ("object", 64), ("object", 160),
         ("columnar", 8), ("columnar", 32), ("columnar", 64)]


def build_ring(representation, bits):
    ring = create_overlay("chord", bits=bits, stabilization_interval=INTERVAL,
                          rng=random.Random(1), representation=representation)
    assert ring.representation == representation
    return ring


def linear_next_hop(ring, current, point, now):
    """Reference ``(next_hop, retries, timeouts)``: scan every finger."""
    size = 1 << ring.bits

    def distance(start, end):
        return (end - start) % size

    def in_open_interval(value, start, end):
        if start == end:
            return value != start
        return 0 < distance(start, value) < distance(start, end)

    retries = timeouts = 0
    best = best_distance = None
    for finger in ring.finger_table(current, now=now):
        if not in_open_interval(finger, current, point):
            continue
        if finger not in ring:
            retries += 1
            if ring.departure_reason(finger) == DepartureReason.FAIL:
                timeouts += 1
            continue
        if best_distance is None or distance(finger, point) < best_distance:
            best, best_distance = finger, distance(finger, point)
    if best is None:
        best = ring.successor((current + 1) % size)
    return best, retries, timeouts


def linear_route(ring, origin, point, now):
    """``ChordRing.route``'s greedy walk, every hop chosen by the oracle."""
    point %= 1 << ring.bits
    responsible = ring.responsible_for(point)
    path, retries, timeouts, current = [origin], 0, 0, origin
    while current != responsible and len(path) <= 4 * ring.bits + len(ring):
        next_hop, hop_retries, hop_timeouts = linear_next_hop(ring, current, point, now)
        retries += hop_retries
        timeouts += hop_timeouts
        if next_hop == current:
            break
        path.append(next_hop)
        current = next_hop
    if path[-1] != responsible:
        path.append(responsible)
    return tuple(path), responsible, retries, timeouts


def assert_hops_agree(ring, current, point, now):
    expected = linear_next_hop(ring, current, point, now)
    assert ring._next_hop(current, point, now) == expected, (current, point, now)


#: One churn step: an action and two numbers it reads modulo what it needs.
steps = st.lists(
    st.tuples(st.sampled_from(["join", "join", "leave", "fail", "rejoin", "tick"]),
              st.integers(min_value=0, max_value=(1 << 160) - 1),
              st.integers(min_value=0, max_value=(1 << 160) - 1)),
    min_size=1, max_size=50)


@pytest.mark.parametrize("representation,bits", RINGS)
@given(steps=steps)
@settings(max_examples=40, deadline=None)
def test_next_hop_equals_the_linear_scan_under_churn(representation, bits, steps):
    ring = build_ring(representation, bits)
    size = 1 << bits
    ring.add_node(steps[0][1] % size)
    departed = []
    now = 0.0
    for action, first, second in steps:
        members = list(ring.nodes())
        if action == "join" and first % size not in ring:
            ring.add_node(first % size, now=now)
        elif action in ("leave", "fail") and len(members) > 1:
            victim = members[first % len(members)]
            ring.remove_node(victim, reason=action, now=now)
            departed.append(victim)
        elif action == "rejoin" and departed:
            returning = departed.pop(first % len(departed))
            if returning not in ring:
                ring.add_node(returning, now=now)
        elif action == "tick":
            # Mostly short of the interval, so tables stay stale across churn.
            now += first % 45
        members = list(ring.nodes())
        for pick in (first, second, first ^ second):
            current = members[pick % len(members)]
            for point in (second % size, current, (current + 1) % size,
                          (current - 1) % size, members[second % len(members)]):
                assert_hops_agree(ring, current, point, now)


@pytest.mark.parametrize("representation,bits", RINGS)
def test_single_member_ring_hops_to_itself(representation, bits):
    ring = build_ring(representation, bits)
    ring.add_node(5)
    for point in (5, 6, 4, 0, (1 << bits) - 1):
        assert ring._next_hop(5, point, 0.0) == (5, 0, 0)
        assert_hops_agree(ring, 5, point, 0.0)
        assert ring.route(5, point).path == (5,)


def test_a_stale_finger_counts_by_how_it_departed_and_a_rejoined_one_is_live():
    ring = build_ring("object", 8)
    for node in (0, 64, 128, 192):
        ring.add_node(node)
    assert ring.finger_table(0) == [64, 128]
    assert ring._next_hop(0, 200, 0.0) == (128, 0, 0)      # table built, fresh
    ring.remove_node(128, reason=DepartureReason.FAIL, now=1.0)
    ring.remove_node(64, reason=DepartureReason.LEAVE, now=1.0)
    assert ring._next_hop(0, 200, 2.0) == (192, 2, 1)      # stale: successor
    assert_hops_agree(ring, 0, 200, 2.0)
    ring.add_node(64, now=3.0)
    assert ring._next_hop(0, 200, 4.0) == (64, 1, 1)       # 64 is live again
    assert ring._next_hop(0, 200, 4.0 + INTERVAL) == (192, 0, 0)   # refreshed


@pytest.mark.parametrize("representation", ["object", "columnar"])
def test_route_paths_equal_the_oracle_walk_on_a_seeded_1000_peer_ring(representation):
    # Two rings fed the same seeded history: one routed by the ring, one by
    # the oracle, so the finger-table state each leaves behind is compared too.
    rng = random.Random(2007)
    ring, twin = build_ring(representation, 32), build_ring(representation, 32)
    for node in rng.sample(range(1 << 32), 1000):
        ring.add_node(node)
        twin.add_node(node)
    now, stale_routes = 0.0, 0
    for round_index in range(12):
        for _ in range(40):
            origin = rng.choice(ring.nodes())
            point = rng.choice([rng.randrange(1 << 32), origin, rng.choice(ring.nodes())])
            route = ring.route(origin, point, now=now)
            assert (route.path, route.responsible, route.retries, route.timeouts) == \
                linear_route(twin, origin, point, now)
            stale_routes += route.retries > 0
        for _ in range(25):
            victim = rng.choice(ring.nodes())
            reason = rng.choice([DepartureReason.LEAVE, DepartureReason.FAIL])
            for each in (ring, twin):
                each.remove_node(victim, reason=reason, now=now)
            newcomer = victim if rng.random() < 0.3 else rng.randrange(1 << 32)
            if newcomer not in ring:
                for each in (ring, twin):
                    each.add_node(newcomer, now=now)
        now += 7.0 if round_index % 4 else INTERVAL
    assert stale_routes > 20      # the stale-table branch really ran
