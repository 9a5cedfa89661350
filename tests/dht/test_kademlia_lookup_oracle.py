"""The heap-shortlist Kademlia lookup against the retained scan-and-``min`` oracle.

The oracle below is the lookup the overlay shipped until 1.9.0: keep every
contact ever heard of in a set, rescan it for the unqueried minimum each
iteration, learn a reply one contact at a time, and answer ``closest`` by
sorting the whole table.  The overlay itself now keeps a heap of the
distances that can still improve the lookup, reads its buckets in XOR order
and learns a reply in one pass; these tests feed two identically seeded
overlays the same churn — one routed by the overlay, one by the oracle — and
require equal routes *and* equal bucket contents, in order, for every live
node after every step.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.dht.columnar.kademlia import ArrayRoutingTable
from repro.dht.kademlia import RoutingTable
from repro.dht.messages import MessageKind
from repro.dht.model import DepartureReason
from repro.dht.registry import create_overlay

OVERLAYS = [("object", 8), ("object", 32), ("object", 64), ("object", 160),
            ("columnar", 8), ("columnar", 32), ("columnar", 64)]
BUCKET_SIZES = [1, 4, 16]


def sorted_closest(table, point, count):
    """1.9.0 ``RoutingTable.closest``: sort every contact of the table."""
    return sorted(table.contacts(), key=lambda contact: contact ^ point)[:count]


def scan_lookup(overlay, origin, target, *, self_distance):
    """1.9.0 ``KademliaOverlay._iterative_lookup``, verbatim."""
    table = overlay._tables[origin]
    shortlist = set(table.contacts())
    shortlist.discard(origin)
    queried = {origin}
    dead = set()
    path = [origin]
    retries = 0
    timeouts = 0
    best_distance = self_distance
    limit = 4 * overlay.bits + len(overlay._members)
    while len(path) + retries <= limit:
        candidates = [contact for contact in shortlist if contact not in queried]
        if not candidates:
            break
        candidate = min(candidates, key=lambda contact: contact ^ target)
        if best_distance is not None and candidate ^ target >= best_distance:
            break
        queried.add(candidate)
        if candidate not in overlay._member_set:
            reason = overlay._departed.get(candidate, (DepartureReason.LEAVE, 0.0))[0]
            retries += 1
            if reason == DepartureReason.FAIL:
                timeouts += 1
            dead.add(candidate)
            table.discard(candidate)
            shortlist.discard(candidate)
            continue
        path.append(candidate)
        overlay._observe(origin, candidate)
        overlay._observe(candidate, origin)
        for learned in sorted_closest(overlay._tables[candidate], target, overlay.k):
            if learned != origin and learned not in dead:
                shortlist.add(learned)
                table.learn(learned)
        distance = candidate ^ target
        if best_distance is None or distance < best_distance:
            best_distance = distance
        if distance == 0:
            break
    return path, retries, timeouts


def build_pair(representation, bits, k):
    """The overlay under test and its twin, whose every lookup is the oracle's."""
    pair = [create_overlay("kademlia", bits=bits, k=k, rng=random.Random(1),
                           representation=representation) for _ in range(2)]
    assert pair[0].representation == representation
    pair[1]._iterative_lookup = functools.partial(scan_lookup, pair[1])
    return pair


def assert_tables_agree(overlay, twin):
    assert overlay.nodes() == twin.nodes()
    for node in overlay.nodes():
        # Flattened in bucket-index order; a contact's bucket follows from its
        # id, so equal lists are equal buckets with equal recency order.
        assert overlay.routing_table(node).contacts() == \
            twin.routing_table(node).contacts(), node


def assert_routes_agree(overlay, twin, origin, point):
    assert overlay.route(origin, point) == twin.route(origin, point), (origin, point)


#: One churn step: an action and two numbers it reads modulo what it needs.
steps = st.lists(
    st.tuples(st.sampled_from(["join", "join", "leave", "fail", "rejoin", "route"]),
              st.integers(min_value=0, max_value=(1 << 160) - 1),
              st.integers(min_value=0, max_value=(1 << 160) - 1)),
    min_size=1, max_size=50)


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("representation,bits", OVERLAYS)
@given(steps=steps)
@settings(max_examples=40, deadline=None)
def test_routes_and_buckets_equal_the_oracle_under_churn(representation, bits, k, steps):
    overlay, twin = build_pair(representation, bits, k)
    size = 1 << bits
    departed = []
    for each in (overlay, twin):
        each.add_node(steps[0][1] % size)
    for action, first, second in steps:
        members = list(overlay.nodes())
        if action == "join" and first % size not in overlay:
            # The bootstrap self-lookup runs inside add_node, on both sides.
            assert overlay.add_node(first % size) == twin.add_node(first % size)
        elif action in ("leave", "fail") and len(members) > 1:
            victim = members[first % len(members)]
            for each in (overlay, twin):
                each.remove_node(victim, reason=action)
            departed.append(victim)
        elif action == "rejoin" and departed:
            returning = departed.pop(first % len(departed))
            if returning not in overlay:
                assert overlay.add_node(returning) == twin.add_node(returning)
        members = list(overlay.nodes())
        origin = members[first % len(members)]
        # A free point, the origin itself, a member id, and a departed id
        # (whose nearest contacts tend to be stale entries for that very id).
        for point in (second % size, origin, members[second % len(members)],
                      departed[second % len(departed)] if departed else 0):
            assert_routes_agree(overlay, twin, origin, point)
        assert_tables_agree(overlay, twin)


@pytest.mark.parametrize("representation,bits", OVERLAYS)
def test_single_member_overlay_routes_to_itself(representation, bits):
    overlay, twin = build_pair(representation, bits, 4)
    for each in (overlay, twin):
        assert each.add_node(5) == set()
    for point in (5, 6, 0, (1 << bits) - 1):
        assert overlay.route(5, point).path == (5,)
        assert_routes_agree(overlay, twin, 5, point)
    assert overlay.routing_table(5).contacts() == []


@pytest.mark.parametrize("representation", ["object", "columnar"])
def test_a_lookup_whose_nearest_contacts_all_departed(representation):
    rng = random.Random(2007)
    overlay, twin = build_pair(representation, 32, 16)
    for node in rng.sample(range(1 << 32), 300):
        for each in (overlay, twin):
            each.add_node(node)
    origin = overlay.nodes()[17]
    point = rng.randrange(1 << 32)
    for each in (overlay, twin):       # warm the origin's table around the point
        each.route(origin, point)
    nearest = sorted_closest(overlay.routing_table(origin), point, 6)
    for index, victim in enumerate(nearest):
        reason = DepartureReason.FAIL if index % 2 else DepartureReason.LEAVE
        for each in (overlay, twin):
            each.remove_node(victim, reason=reason)
    route = overlay.route(origin, point)
    assert route.retries >= 6 and route.timeouts >= 3
    assert route == twin.route(origin, point)
    assert not set(nearest) & set(overlay.routing_table(origin).contacts())
    assert_tables_agree(overlay, twin)


@pytest.mark.parametrize("representation", ["object", "columnar"])
def test_routes_equal_the_oracle_on_a_seeded_1000_peer_overlay(representation):
    rng = random.Random(2007)
    overlay, twin = build_pair(representation, 32, 16)
    for node in rng.sample(range(1 << 32), 1000):
        assert overlay.add_node(node) == twin.add_node(node)
    stale_routes = 0
    for _ in range(8):
        for _ in range(40):
            origin = rng.choice(overlay.nodes())
            point = rng.choice([rng.randrange(1 << 32), origin,
                                rng.choice(overlay.nodes())])
            route = overlay.route(origin, point)
            assert route == twin.route(origin, point)
            stale_routes += route.retries > 0
        for _ in range(50):
            victim = rng.choice(overlay.nodes())
            reason = rng.choice([DepartureReason.LEAVE, DepartureReason.FAIL])
            newcomer = victim if rng.random() < 0.3 else rng.randrange(1 << 32)
            for each in (overlay, twin):
                each.remove_node(victim, reason=reason)
                if newcomer not in each:
                    each.add_node(newcomer)
    assert stale_routes > 20           # the dead-contact branch really ran
    assert overlay._rng.getstate() == twin._rng.getstate()
    assert_tables_agree(overlay, twin)


# ------------------------------------------------------------ closest()
TABLES = [(RoutingTable, 8), (RoutingTable, 32), (RoutingTable, 160),
          (ArrayRoutingTable, 8), (ArrayRoutingTable, 32), (ArrayRoutingTable, 64)]


@pytest.mark.parametrize("table_class,bits", TABLES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_closest_equals_the_full_sort(table_class, bits, data):
    ids = st.integers(min_value=0, max_value=(1 << bits) - 1)
    owner = data.draw(ids)
    k = data.draw(st.sampled_from(BUCKET_SIZES))
    table = table_class(owner, bits, k)
    # Neighbours of the owner fill the low buckets, free ids overfill the
    # high ones (learn keeps the first k), and the rest stay empty.
    near = st.integers(min_value=0, max_value=min(63, (1 << bits) - 1))
    for contact in data.draw(st.lists(st.one_of(ids, near.map(owner.__xor__)),
                                      max_size=80)):
        table.learn(contact)
    for contact in data.draw(st.lists(ids, max_size=4)):
        table.discard(contact)          # may leave an empty row behind
    contacts = table.contacts()
    for point in (owner, data.draw(ids), data.draw(near) ^ owner,
                  contacts[0] if contacts else 0):
        for count in (0, 1, k, len(contacts) + 3):
            assert table.closest(point, count) == \
                sorted(contacts, key=lambda contact: contact ^ point)[:count]


# ------------------------------------------------------------ golden pin
def test_seeded_cluster_under_churn_repeats_its_per_call_digest():
    # Recorded at 1.9.0 (the parent of the heap-shortlist lookup): a change of
    # lookup order must fail here, not merely shift messages_per_key_op.
    cluster = Cluster.build(peers=1000, protocol="kademlia", seed=2007)
    network, rng, digest = cluster.network, random.Random(23), hashlib.sha1()
    total_retries = 0
    with cluster.session() as session:
        for event in range(200):
            victim = network.random_alive_peer()
            (network.fail_peer if event % 2 else network.leave_peer)(victim)
            network.join_peer()
            for call in range(3):
                key = f"key-{rng.randrange(48)}"
                result = (session.retrieve(key) if call else
                          session.insert(key, {"event": event}))
                retries = result.trace.count_by_kind().get(MessageKind.LOOKUP_RETRY, 0)
                total_retries += retries
                digest.update(f"{result.message_count}:{retries};".encode("ascii"))
    assert total_retries == 827
    assert digest.hexdigest() == "9d1156e117eaaf13b61a93ad0f930f5bada1753a"
