"""``ChordRing._next_hop`` and its walk against the retained linear-scan oracle.

The oracle below is the finger scan the ring shipped until 1.8.0: test every
finger for membership of the clockwise-open interval ``(current, point)``,
count the departed ones as retries/timeouts, keep the live one closest to the
point.  The ring itself reads a fresh table's hop by finger exponent and
scans a stale table's distinct jumps below the target; these tests
drive churn with a positive stabilisation interval (so tables go stale and
point at departed or re-joined ids) and require the two to agree hop for hop.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import record_columns

from repro.api import Cluster
from repro.dht.chord import ChordRing
from repro.dht.messages import MessageKind
from repro.dht.model import DepartureReason
from repro.dht.registry import create_overlay

INTERVAL = 30.0
BITS = [8, 32, 64, 160]


def build_ring(bits):
    return create_overlay("chord", bits=bits, stabilization_interval=INTERVAL,
                          rng=random.Random(1))


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


@pytest.mark.parametrize("bits", BITS)
@given(steps=steps)
@settings(max_examples=40, deadline=None)
def test_next_hop_equals_the_linear_scan_under_churn(bits, steps):
    ring = build_ring(bits)
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


@pytest.mark.parametrize("bits", BITS)
def test_single_member_ring_hops_to_itself(bits):
    ring = build_ring(bits)
    ring.add_node(5)
    for point in (5, 6, 4, 0, (1 << bits) - 1):
        assert ring._next_hop(5, point, 0.0) == (5, 0, 0)
        assert_hops_agree(ring, 5, point, 0.0)
        assert ring.route(5, point).path == (5,)


def test_a_stale_finger_counts_by_how_it_departed_and_a_rejoined_one_is_live():
    ring = build_ring(8)
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


def test_route_paths_equal_the_oracle_walk_on_a_seeded_1000_peer_ring():
    # Two rings fed the same seeded history: one routed by the ring, one by
    # the oracle, so the finger-table state each leaves behind is compared too.
    rng = random.Random(2007)
    ring, twin = build_ring(32), build_ring(32)
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


def table_states(ring):
    """Every finger table's ``(jumps, refreshed_at, version)``."""
    return {node: (table.jumps, table.refreshed_at, table.version)
            for node, table in ring._fingers.items()}


@pytest.mark.parametrize("bits", BITS)
@given(steps=steps)
@settings(max_examples=40, deadline=None)
def test_routes_and_refresh_bookkeeping_equal_the_oracle_walk_under_churn(bits, steps):
    # One ring routed by ChordRing.route, its twin by the oracle, both fed the
    # same history: the routes must agree, and so must every table left
    # behind — a walk that skips (or adds) a refresh bump shows up as a
    # refreshed_at that differs from the twin's.
    ring, twin = build_ring(bits), build_ring(bits)
    size = 1 << bits
    for each in (ring, twin):
        each.add_node(steps[0][1] % size)
    departed = []
    now = 0.0
    for action, first, second in steps:
        members = list(ring.nodes())
        if action == "join" and first % size not in ring:
            joining = [first % size]
        elif action == "rejoin" and departed:
            joining = [departed.pop(first % len(departed))]
        else:
            joining = []
        if action in ("leave", "fail") and len(members) > 1:
            victim = members[first % len(members)]
            for each in (ring, twin):
                each.remove_node(victim, reason=action, now=now)
            departed.append(victim)
        elif action == "tick":
            now += first % 45
        for node in joining:
            if node not in ring:
                for each in (ring, twin):
                    each.add_node(node, now=now)
        members = list(ring.nodes())
        for pick in (first, second, first ^ second):
            origin = members[pick % len(members)]
            for point in (second % size, members[second % len(members)],
                          (origin - 1) % size):
                route = ring.route(origin, point, now=now)
                assert (route.path, route.responsible, route.retries, route.timeouts) == \
                    linear_route(twin, origin, point, now)
        assert table_states(ring) == table_states(twin)


# ------------------------------------------------------------ golden pin
def test_seeded_chord_cluster_under_churn_repeats_its_trace_digest(monkeypatch):
    # Recorded at 4.0.0 (the parent of the inline walk): every column of every
    # call's trace — hop endpoints, sizes, retries and timeouts, which is also
    # what the wire ships — must repeat, not merely messages_per_key_op.  Eight
    # departures and joins every fourth step, 12 s per step: tables go stale by
    # version inside their refresh window (retries), and outlive the window at
    # an unchanged membership (refresh bumps).
    bumps = []
    snapshot = ChordRing._finger_snapshot

    def counting_snapshot(ring, node_id, now):
        table = ring._fingers.get(node_id)
        stamp = None if table is None else table.refreshed_at
        result = snapshot(ring, node_id, now)
        bumps.append(result is table and result.refreshed_at != stamp)
        return result

    monkeypatch.setattr(ChordRing, "_finger_snapshot", counting_snapshot)
    cluster = Cluster.build(peers=1000, protocol="chord", seed=2007)
    network, rng, digest = cluster.network, random.Random(23), hashlib.sha1()
    columns = record_columns(network)  # the pin digests every column
    retried_calls = 0
    with cluster.session() as session:
        for event in range(120):
            for departure in range(8 if event % 4 == 0 else 0):
                victim = network.random_alive_peer()
                (network.fail_peer if departure % 2 else network.leave_peer)(victim)
                network.join_peer()
            network.now += 12.0
            for call in range(3):
                key = f"key-{rng.randrange(48)}"
                if call:
                    session.retrieve(key)
                else:
                    session.insert(key, {"event": event})
                trace = columns.take()
                retried_calls += MessageKind.LOOKUP_RETRY in trace.count_by_kind()
                digest.update(bytes(trace.kinds))
                for column in (trace.size_bytes, trace.sources, trace.dests,
                               trace.timed_out):
                    digest.update(repr(list(column)).encode("ascii"))
    assert (retried_calls, sum(bumps)) == (42, 542)     # both branches ran
    assert digest.hexdigest() == "208479d2505845f17e3453911ba0469b9e5a0c26"
