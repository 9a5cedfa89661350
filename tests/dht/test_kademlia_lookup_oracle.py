"""The heap-shortlist Kademlia lookup against the retained scan-and-``min`` oracle.

The oracle below is the lookup the overlay shipped until 1.9.0: keep every
contact ever heard of in a set, rescan it for the unqueried minimum each
iteration, learn a reply one contact at a time, and answer ``closest`` by
sorting the whole table.  The overlay itself now keeps a sorted run of the
distances that can still improve the lookup, seeded one bucket row at a time,
reads its buckets in XOR order, and learns a reply in one pass or, when that
cannot change the table, not at all; these tests feed two identically seeded
overlays the same churn — one routed by the overlay, one by the oracle — and
require equal routes *and* equal bucket contents, in order, for every live
node after every step.

The bucket rules are kept the same way: the 5.0.0 ``KBucket`` update rules,
verbatim on a plain list, are the reference for the rules ``RoutingTable``
now applies to its bare rows.  Golden digests of every routing table, after
a seeded churn session and after a 10 000-peer build, pin bucket contents
and order that no route has read yet.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import record_columns

from repro.api import Cluster
from repro.dht.kademlia import RoutingTable
from repro.dht.messages import MessageKind
from repro.dht.model import DepartureReason
from repro.dht.network import DHTNetwork
from repro.dht.registry import create_overlay

BITS = [8, 32, 64, 160]
BUCKET_SIZES = [1, 4, 16]


def sorted_closest(table, point, count):
    """1.9.0 ``RoutingTable.closest``: sort every contact of the table."""
    return sorted(table.contacts(), key=lambda contact: contact ^ point)[:count]


def scan_lookup(overlay, origin, target, *, self_distance, trace=None):
    """1.9.0 ``KademliaOverlay._iterative_lookup``, verbatim.

    Then the hops go into ``trace``, when given, as the lookup under test
    records them.
    """
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
    if trace is not None:
        trace.record_route(path)
    return path, retries, timeouts


def reference_observe(contacts, capacity, contact, is_alive):
    """5.0.0 ``KBucket.observe`` on a plain list, verbatim."""
    if contact in contacts:
        contacts.remove(contact)
        contacts.append(contact)
        return True
    if len(contacts) < capacity:
        contacts.append(contact)
        return True
    least_recently_seen = contacts[0]
    if is_alive(least_recently_seen):
        contacts.pop(0)
        contacts.append(least_recently_seen)
        return False
    contacts.pop(0)
    contacts.append(contact)
    return True


def reference_learn(contacts, capacity, contact):
    """5.0.0 ``KBucket.learn`` on a plain list, verbatim."""
    if contact in contacts:
        return True
    if len(contacts) >= capacity:
        return False
    contacts.append(contact)
    return True


def reference_discard(contacts, contact):
    """5.0.0 ``KBucket.discard`` on a plain list, verbatim."""
    try:
        contacts.remove(contact)
    except ValueError:
        pass


def build_pair(bits, k):
    """The overlay under test and its twin, whose every lookup is the oracle's."""
    pair = [create_overlay("kademlia", bits=bits, k=k, rng=random.Random(1))
            for _ in range(2)]
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
@pytest.mark.parametrize("bits", BITS)
@given(steps=steps)
@settings(max_examples=40, deadline=None)
def test_routes_and_buckets_equal_the_oracle_under_churn(bits, k, steps):
    overlay, twin = build_pair(bits, k)
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


@pytest.mark.parametrize("bits", BITS)
def test_single_member_overlay_routes_to_itself(bits):
    overlay, twin = build_pair(bits, 4)
    for each in (overlay, twin):
        assert each.add_node(5) == set()
    for point in (5, 6, 0, (1 << bits) - 1):
        assert overlay.route(5, point).path == (5,)
        assert_routes_agree(overlay, twin, 5, point)
    assert overlay.routing_table(5).contacts() == []


def test_a_lookup_whose_nearest_contacts_all_departed():
    rng = random.Random(2007)
    overlay, twin = build_pair(32, 16)
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


# ------------------------------------------------------------ named branches
def hand_built_pair(bits, k, tables, departed=()):
    """``build_pair`` whose routing tables hold exactly ``tables``, in order.

    Every node named in ``tables`` joins both overlays; then each table is
    replaced by one that has observed the listed contacts in order, and the
    ``departed`` nodes leave, alternately gracefully and by failure.
    """
    pair = build_pair(bits, k)
    named = {*tables, *(contact for row in tables.values() for contact in row)}
    for overlay in pair:
        for node in sorted(named):
            overlay.add_node(node)
        for node in overlay.nodes():
            table = overlay._tables[node] = RoutingTable(node, bits, k)
            for contact in tables.get(node, ()):
                assert table.observe(contact, overlay.__contains__)
        for index, node in enumerate(departed):
            overlay.remove_node(node, reason=(DepartureReason.FAIL if index % 2
                                              else DepartureReason.LEAVE))
    return pair


def lookup_from_zero(bits):
    """Origin 0 and a target ``T`` with its top two bits set.

    The origin's bucket ``t = bits - 1`` holds the contacts within ``2^t`` of
    ``T``; its bucket ``bits - 2`` is the next nearest group.  ``at(d)`` is
    the node at distance ``d`` from ``T``: ``d < 2^t`` lands in bucket ``t``.
    """
    target = 3 << (bits - 2)
    return target, target.__xor__


def route_both(overlay, twin, target):
    route = overlay.route(0, target)
    assert route == twin.route(0, target)
    assert_tables_agree(overlay, twin)
    return route


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", BITS)
def test_a_dead_nearest_group_seeds_the_next(bits, k):
    # Every contact of the origin's bucket t has departed, so the lookup
    # must go on to the row at the next set bit, whose node knows the
    # responsible; stopping after the first row forces a hop instead.
    target, at = lookup_from_zero(bits)
    dead = [at(64 + index) for index in range(k)]
    middle, responsible = at((1 << (bits - 1)) | 5), at(1)
    overlay, twin = hand_built_pair(bits, k, {0: dead + [middle], middle: [responsible]},
                                    departed=dead)
    route = route_both(overlay, twin, target)
    assert (route.path, route.retries) == ((0, middle, responsible), k)


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", BITS)
def test_a_reply_keeps_only_the_k_nearest_nearer_contacts(bits, k):
    # The queried node (distance 48) holds k + 1 contacts nearer than itself:
    # k departed ones at distances 1..k in its bucket 5 and a live one at 33
    # in its bucket 4.  Its reply is the k nearest, so the live one is never
    # queried and the route ends with a forced hop to the target itself.
    target, at = lookup_from_zero(bits)
    queried, dead, live = at(48), [at(1 + index) for index in range(k)], at(33)
    others = [at(64 + index) for index in range(k - 1)]   # fill bucket t
    overlay, twin = hand_built_pair(
        bits, k, {0: others + [queried], queried: dead + [live], target: []},
        departed=dead)
    route = route_both(overlay, twin, target)
    assert (route.path, route.retries) == ((0, queried, target), k)


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", BITS)
def test_a_bucket_with_room_learns_the_whole_reply(bits, k):
    # The queried node's bucket 6 holds k contacts, all within 2^t of the
    # target but farther than itself, so none is queried; the origin's bucket
    # t is one short of full and learns the nearest of them.  (With k = 1 the
    # queried node alone fills that bucket, and the reply is not learned.)
    target, at = lookup_from_zero(bits)
    queried, farther = at(48), [at(96 + index) for index in range(k)]
    others = [at(64 + index) for index in range(k - 2)]
    overlay, twin = hand_built_pair(bits, k, {0: others + [queried], queried: farther})
    route = route_both(overlay, twin, target)
    assert route.path == (0, queried)
    assert (farther[0] in overlay.routing_table(0).contacts()) == (k > 1)


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", BITS)
def test_a_node_queried_beyond_2_to_the_t_has_its_reply_learned(bits, k):
    # The origin's bucket t starts full of departed contacts, which the
    # lookup empties before it queries a node at distance >= 2^t; that node's
    # k contacts in its buckets below t, farther still, are then learned into
    # the origin's bucket bits - 2 (full with k = 1).
    target, at = lookup_from_zero(bits)
    dead = [at(64 + index) for index in range(k)]
    middle = at((1 << (bits - 1)) | 5)
    farther = [at((1 << (bits - 1)) | (16 + index)) for index in range(k)]
    overlay, twin = hand_built_pair(bits, k, {0: dead + [middle], middle: farther},
                                    departed=dead)
    route = route_both(overlay, twin, target)
    assert (route.path, route.retries) == ((0, middle), k)
    assert len(overlay.routing_table(0).bucket(bits - 2)) == k


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", BITS)
def test_k_minus_one_contacts_within_2_to_the_t_learn_the_reply(bits, k):
    # The origin's bucket t is full, but the queried node holds only k - 1
    # contacts within 2^t of the target (its bucket 6), so its reply also
    # carries ``outside`` from its own bucket t, which the origin learns into
    # its empty bucket bits - 2.  Counting one contact too many skips that.
    target, at = lookup_from_zero(bits)
    queried, outside = at(48), at((1 << (bits - 1)) | 7)
    inside = [at(96 + index) for index in range(k - 1)]
    others = [at(64 + index) for index in range(k - 1)]
    overlay, twin = hand_built_pair(bits, k,
                                    {0: others + [queried], queried: inside + [outside]})
    route = route_both(overlay, twin, target)
    assert route.path == (0, queried)
    assert overlay.routing_table(0).bucket(bits - 2) == [outside]


def test_routes_equal_the_oracle_on_a_seeded_1000_peer_overlay():
    rng = random.Random(2007)
    overlay, twin = build_pair(32, 16)
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
@pytest.mark.parametrize("bits", BITS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_closest_equals_the_full_sort(bits, data):
    ids = st.integers(min_value=0, max_value=(1 << bits) - 1)
    owner = data.draw(ids)
    k = data.draw(st.sampled_from(BUCKET_SIZES))
    table = RoutingTable(owner, bits, k)
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


# ------------------------------------------------------------ bucket rules
#: One bucket-rule step: an action, then a contact, a reply and the few
#: contacts that are dead, all as indices into the example's contact pool.
pool_indices = st.integers(min_value=0, max_value=63)
rule_steps = st.lists(
    st.tuples(st.sampled_from(["observe", "observe", "learn", "learn_many", "discard"]),
              pool_indices, st.lists(pool_indices, max_size=18),
              st.lists(pool_indices, max_size=4)),
    min_size=1, max_size=80)


@pytest.mark.parametrize("k", BUCKET_SIZES)
@pytest.mark.parametrize("bits", [8, 32, 160])
@given(data=st.data(), steps=rule_steps)
@settings(max_examples=60, deadline=None)
def test_bucket_rules_equal_the_reference_on_plain_lists(bits, k, data, steps):
    ids = st.integers(min_value=0, max_value=(1 << bits) - 1)
    owner = data.draw(ids)
    # A small pool, so contacts recur and rows fill: more than k contacts of
    # one bucket (so it overflows and pings), a few neighbours of the owner
    # in the low buckets, free ids, and the owner itself, which every rule
    # must refuse.
    crowded = data.draw(st.integers(min_value=5, max_value=bits - 1))
    crowd = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << crowded) - 1),
                               min_size=k + 1, max_size=k + 3, unique=True))
    near = st.integers(min_value=1, max_value=31).map(owner.__xor__)
    others = data.draw(st.lists(st.one_of(ids, near, st.just(owner)), max_size=6))
    pool = list(dict.fromkeys([owner ^ (1 << crowded) ^ low for low in crowd] + others))
    table = RoutingTable(owner, bits, k)
    rows = {}                    # bucket index -> the reference's plain list
    # Learning the whole pool first fills the crowded bucket, so that the
    # drawn steps start right at the overflow rules.
    prefix = [("learn", which, [], []) for which in range(len(pool))]
    for action, which, replied, died in prefix + steps:
        contact = pool[which % len(pool)]
        reply = [pool[each % len(pool)] for each in replied[:k + 2]]
        # The liveness predicate of this step: who would answer a ping.
        dead = {pool[each % len(pool)] for each in died}
        row = (rows.setdefault((owner ^ contact).bit_length() - 1, [])
               if contact != owner else None)
        if action == "observe":
            expected = (reference_observe(row, k, contact, lambda c: c not in dead)
                        if row is not None else False)
            assert table.observe(contact, lambda c: c not in dead) == expected
        elif action == "learn":
            expected = reference_learn(row, k, contact) if row is not None else False
            assert table.learn(contact) == expected
        elif action == "learn_many":
            for learned in reply:
                if learned != owner and learned not in dead:
                    reference_learn(rows.setdefault((owner ^ learned).bit_length() - 1, []),
                                    k, learned)
            table.learn_many(reply, dead)
        elif row is not None:
            reference_discard(row, contact)
            table.discard(contact)
        for index, contacts in rows.items():
            assert table.bucket(index) == contacts, index
        assert table.contacts() == [contact for index in sorted(rows)
                                    for contact in rows[index]]


# ------------------------------------------------------------ golden pins
def routing_tables_digest(overlay):
    """SHA-1 over every live node's contacts, in node then bucket order."""
    digest = hashlib.sha1()
    for node in overlay.nodes():
        digest.update(repr(overlay.routing_table(node).contacts()).encode("ascii"))
    return digest.hexdigest()


def test_seeded_cluster_under_churn_repeats_its_per_call_digest():
    # Recorded at 1.9.0 (the parent of the heap-shortlist lookup): a change of
    # lookup order must fail here, not merely shift messages_per_key_op.
    cluster = Cluster.build(peers=1000, protocol="kademlia", seed=2007)
    network, rng, digest = cluster.network, random.Random(23), hashlib.sha1()
    columns = record_columns(network)  # retries are counted by kind
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
                retries = columns.take().count_by_kind().get(MessageKind.LOOKUP_RETRY, 0)
                total_retries += retries
                digest.update(f"{result.message_count}:{retries};".encode("ascii"))
    assert total_retries == 827
    assert digest.hexdigest() == "9d1156e117eaaf13b61a93ad0f930f5bada1753a"


def test_seeded_cluster_under_churn_repeats_its_routing_tables():
    # Recorded at 5.0.0, on the session of the per-call digest above: the
    # per-call digest only sees message and retry counts, so a bucket order
    # no route has read yet must fail here.
    cluster = Cluster.build(peers=1000, protocol="kademlia", seed=2007)
    network, rng = cluster.network, random.Random(23)
    with cluster.session() as session:
        for event in range(200):
            victim = network.random_alive_peer()
            (network.fail_peer if event % 2 else network.leave_peer)(victim)
            network.join_peer()
            for call in range(3):
                key = f"key-{rng.randrange(48)}"
                (session.retrieve(key) if call else
                 session.insert(key, {"event": event}))
    assert routing_tables_digest(network.protocol) == \
        "fbd1ed7ad2455ba670d6a8ab6cab9086cf953dca"


def test_a_10000_peer_build_repeats_its_routing_tables():
    # Recorded at 5.0.0: one bootstrap self-lookup per join builds them.
    network = DHTNetwork.build(10000, protocol="kademlia", seed=2007)
    assert routing_tables_digest(network.protocol) == \
        "f5fa6820f052a6b2a972069036df5f359b4ecaae"
