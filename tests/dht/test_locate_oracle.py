"""The one-pass locate against the two-step reference, under churn.

``DHTNetwork._locate`` routes with the trace in hand — the overlay records
each hop as its walk takes it — and replays each exchange from the row
the trace's ``MessageSizes`` computed once for it.  The reference kept here is the two-step locate it
replaced: route without a trace, then record the path and the exchange
(``record_route`` and ``record_request_reply`` as they were, writing the
columns of the trace's recorder and the trace's counts), with the origin
drawn as ``rng.choice(protocol.nodes())``.  Two clusters are built from one
seed, each with the column recorder of ``tests/trace_columns.py`` as its
message hook, and the reference is patched into one of them; one stream of
point and batched operations, ``unreachable`` sets, joins, leaves, failures
and clock advances drives both, and after every step the two recorders must
be equal column for column, and the two summaries count for count — and for
Kademlia, whose lookups update routing tables as they go, every routing
table too.  Stale Chord
fingers (the stabilisation interval is 30 simulated seconds) make retries.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import KIND_CODES, record_columns

from repro.api import Cluster
from repro.dht.errors import EmptyNetworkError
from repro.dht.messages import MessageKind
from repro.dht.network import DHTNetwork

OVERLAYS = ["chord", "kademlia", "can"]
_HOP = KIND_CODES[MessageKind.LOOKUP_HOP].encode("ascii")
_RETRY = KIND_CODES[MessageKind.LOOKUP_RETRY].encode("ascii")


def reference_record_route(trace, path, *, retries=0, timeouts=0):
    """9.0.0 ``OperationTrace.record_route``, on the columns of the trace's
    recorder and the trace's counts."""
    columns = trace.on_message
    nodes = tuple(path)
    hops = max(0, len(nodes) - 1)
    hop_bytes = trace.sizes.size_of(MessageKind.LOOKUP_HOP)
    if retries <= 0:
        columns.kinds.extend(_HOP * hops)
        columns.size_bytes.extend([hop_bytes] * hops)
        columns.sources.extend(nodes[:hops])
        columns.dests.extend(nodes[1:])
        trace.message_count += hops
        trace.total_bytes += hop_bytes * hops
        return
    retry_bytes = trace.sizes.size_of(MessageKind.LOOKUP_RETRY)
    first_retry = len(columns.kinds) + hops
    columns.timed_out.extend(range(first_retry, first_retry + min(timeouts, retries)))
    columns.kinds.extend(_HOP * hops + _RETRY * retries)
    columns.size_bytes.extend([hop_bytes] * hops + [retry_bytes] * retries)
    columns.sources.extend(nodes[:hops] + (-1,) * retries)
    columns.dests.extend(nodes[1:] + (-1,) * retries)
    trace.message_count += hops + retries
    trace.total_bytes += hop_bytes * hops + retry_bytes * retries
    trace.timeout_count += max(0, min(timeouts, retries))


def reference_record_request_reply(trace, request_kind, reply_kind, *, source=None,
                                    dest=None, entries=1):
    """9.0.0 ``OperationTrace.record_request_reply``, on the columns of the
    trace's recorder and the trace's counts."""
    columns = trace.on_message
    request_bytes = trace.sizes.size_of(request_kind, entries)
    reply_bytes = trace.sizes.size_of(reply_kind, entries)
    source = -1 if source is None else source
    dest = -1 if dest is None else dest
    columns.kinds.extend((ord(KIND_CODES[request_kind]), ord(KIND_CODES[reply_kind])))
    columns.size_bytes.extend((request_bytes, reply_bytes))
    columns.sources.extend((source, dest))
    columns.dests.extend((dest, source))
    trace.message_count += 2
    trace.total_bytes += request_bytes + reply_bytes


def reference_locate(network, origin, point, trace, exchange=None,
                     unreachable=frozenset(), *, source=None, entries=1):
    """9.0.0 ``DHTNetwork._locate``, verbatim: route, then record what it walked."""
    if trace is None:
        return network.protocol.responsible_for(point), None
    route = network.protocol.route(origin, point, now=network.now)
    path, responsible, retries, timeouts = route
    reference_record_route(trace, path, retries=retries, timeouts=timeouts)
    if exchange is not None:
        if responsible in unreachable:
            trace.record(exchange[0], dest=responsible, timed_out=True)
        else:
            reference_record_request_reply(trace, *exchange, source=source,
                                           dest=responsible, entries=entries)
    return responsible, route


def reference_resolve_origin(network, origin):
    """9.0.0 ``DHTNetwork._resolve_origin``, through ``rng.choice``."""
    if origin is not None and origin in network._peers:
        return origin
    if not network._peers:
        raise EmptyNetworkError("the network has no live peers")
    return network.rng.choice(network.protocol.nodes())


def build_pair(name, seed):
    """The cluster under test and its twin running the reference locate, each
    with a column recorder (the reference writes the columns itself)."""
    pair = [Cluster.build(peers=24, protocol=name, seed=seed,
                          stabilization_interval=30.0) for _ in range(2)]
    for cluster in pair:
        record_columns(cluster.network)
    twin = pair[1].network
    twin._locate = reference_locate.__get__(twin, DHTNetwork)
    twin._resolve_origin = reference_resolve_origin.__get__(twin, DHTNetwork)
    return pair


def recorded(cluster, trace):
    """The columns ``cluster``'s recorder took for one step, and ``trace``'s counts."""
    columns = cluster.network.on_message.take()
    return columns, (bytes(columns.kinds), columns.size_bytes, columns.sources,
                     columns.dests, columns.timed_out, trace.message_count,
                     trace.total_bytes, trace.timeout_count)


def assert_twins_agree(name, cluster, twin):
    network, reference = cluster.network, twin.network
    assert network.protocol.nodes() == reference.protocol.nodes()
    assert network.rng.getstate() == reference.rng.getstate()
    if name == "kademlia":
        for node in network.protocol.nodes():
            assert network.protocol.routing_table(node).contacts() == \
                reference.protocol.routing_table(node).contacts(), node


def run_step(cluster, action, number, keys):
    """Apply one step to ``cluster``; the trace it produced, if any."""
    network, ums = cluster.network, cluster.service("ums")
    members = network.protocol.nodes()
    hashes = list(cluster.replication)
    key = keys[number % len(keys)]
    batch = [keys[(number >> shift) % len(keys)] for shift in range(0, 48, 3)]
    # Every other operation misses the replica holders its number's bits pick.
    unreachable = frozenset(
        network.responsible_peer(key, hash_fn)
        for index, hash_fn in enumerate(hashes) if number >> (index + 1) & 1
    ) if number & 1 else frozenset()
    origin = members[number % len(members)] if number % 3 == 0 else None
    if action == "insert":
        return ums.insert(key, number, origin=origin, unreachable=unreachable).trace
    if action == "retrieve":
        return ums.retrieve(key, origin=origin, unreachable=unreachable).trace
    if action == "insert_many":
        return ums.insert_many([(item, number) for item in batch], origin=origin,
                               unreachable=unreachable).trace
    if action == "retrieve_many":
        return ums.retrieve_many(batch, origin=origin, unreachable=unreachable).trace
    if action == "lookup":
        trace = network.new_trace()
        network.lookup(key, hashes[number % len(hashes)], origin=origin, trace=trace,
                       exchange=(MessageKind.TSR, MessageKind.TSR_REPLY))
        return trace
    if action == "join":
        network.join_peer()
    elif action in ("leave", "fail") and len(members) > 6:
        victim = members[number % len(members)]
        (network.leave_peer if action == "leave" else network.fail_peer)(victim)
    elif action == "tick":
        network.now += number % 45
    return None


#: One step: an action and a number it reads bits and remainders of.
steps = st.lists(
    st.tuples(st.sampled_from(["insert", "retrieve", "retrieve", "insert_many",
                               "retrieve_many", "lookup", "join", "leave", "fail",
                               "tick"]),
              st.integers(min_value=0, max_value=(1 << 48) - 1)),
    min_size=1, max_size=40)


@pytest.mark.parametrize("name", OVERLAYS)
@given(steps=steps, seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=25, deadline=None)
def test_the_one_pass_locate_equals_the_two_step_reference(name, steps, seed):
    cluster, twin = build_pair(name, seed)
    keys = [f"key-{index}" for index in range(12)]
    for action, number in steps:
        traces = [run_step(each, action, number, keys) for each in (cluster, twin)]
        if traces[0] is not None:
            assert recorded(cluster, traces[0])[1] == recorded(twin, traces[1])[1], action
        assert_twins_agree(name, cluster, twin)


@pytest.mark.parametrize("name", OVERLAYS)
def test_a_seeded_churn_stream_runs_every_branch_of_the_locate(name):
    # The hypothesis test's stream, seeded and long enough that each branch
    # the reference distinguishes is taken: retries (not on CAN, which keeps
    # no stale state), timed-out requests and multi-entry exchanges.
    cluster, twin = build_pair(name, 7)
    rng, keys = random.Random(11), [f"key-{index}" for index in range(12)]
    actions = ["insert", "retrieve", "retrieve", "insert_many", "retrieve_many",
               "lookup", "join", "leave", "fail", "tick", "tick"]
    retries = timeouts = multi_entry = 0   # timeouts: of requests only
    for _ in range(300):
        action, number = rng.choice(actions), rng.getrandbits(48)
        traces = [run_step(each, action, number, keys) for each in (cluster, twin)]
        if traces[0] is not None:
            trace, rows = recorded(cluster, traces[0])
            assert rows == recorded(twin, traces[1])[1], action
            kinds = trace.count_by_kind()
            retries += kinds.get(MessageKind.LOOKUP_RETRY, 0)
            timeouts += sum(message.timed_out
                            and message.kind is not MessageKind.LOOKUP_RETRY
                            for message in trace)
            multi_entry += sum(size > cluster.network.message_sizes.data_bytes
                               for size in trace.size_bytes)
        assert_twins_agree(name, cluster, twin)
    assert timeouts > 0 and multi_entry > 0
    assert (retries > 0) == (name != "can")
