"""The counting trace against the test recorder of its messages.

A network records a :class:`~repro.dht.messages.TraceSummary`, and hands
each message it counts to ``DHTNetwork.on_message`` when one is set, as the
simulation harness sets it to price a retrieve.  The column recorder of
``tests/trace_columns.py``, set as that hook, is the reference kept here.
Two clusters are built from one seed, one with no hook and its twin with
the recorder; one stream of point and batched UMS and BRK operations,
``unreachable`` sets, joins, leaves, failures, clock advances and
anti-entropy rounds drives both.  After every step:

* every result's summary counts what the twin's recorder recorded, equals
  the twin's summary, and the rest of the two results is equal;
* every live peer's store is equal on both;
* every random stream of both is in the same state: a hook changes no draw
  and no route.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import record_columns

from repro.api import Cluster
from repro.dht.messages import MessageKind, TraceSummary

OVERLAYS = ["chord", "kademlia", "can"]
SERVICES = ["ums", "brk"]


def build_twins(name, seed):
    """A cluster with no hook, its twin with a column recorder, and the recorder."""
    pair = [Cluster.build(peers=24, protocol=name, seed=seed, stabilization_interval=30.0)
            for _ in range(2)]
    columns = record_columns(pair[1].network)
    for cluster in pair:
        for service in SERVICES:
            cluster.service(service)
    return (*pair, columns)


def without_traces(result):
    """``result`` with its trace and its items' traces left out."""
    items = getattr(result, "results", None)
    if items is None:
        return replace(result, trace=None)
    return replace(result, trace=None, results=tuple(map(without_traces, items)))


def random_states(cluster):
    network = cluster.network
    return [network.rng.getstate(), network.protocol._rng.getstate(),
            cluster.kts.rng.getstate(),
            *(cluster.service(name).rng.getstate() for name in SERVICES)]


def stores(network):
    return {peer: network.peer(peer).store.values() for peer in network.alive_peer_ids()}


def run_step(cluster, action, number, keys):
    """Apply one step to ``cluster``: its result and trace, if it made any."""
    network = cluster.network
    service = cluster.service(SERVICES[number >> 47 & 1])
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
        result = service.insert(key, number, origin=origin, unreachable=unreachable)
    elif action == "retrieve":
        result = service.retrieve(key, origin=origin, unreachable=unreachable)
    elif action == "insert_many":
        result = service.insert_many([(item, number) for item in batch], origin=origin,
                                     unreachable=unreachable)
    elif action == "retrieve_many":
        result = service.retrieve_many(batch, origin=origin, unreachable=unreachable)
    elif action == "sync":
        trace = network.new_trace()
        return cluster.replication.sync_replicas(network, trace=trace), trace
    else:
        if action == "join":
            network.join_peer()
        elif action in ("leave", "fail") and len(members) > 6:
            victim = members[number % len(members)]
            (network.leave_peer if action == "leave" else network.fail_peer)(victim)
        elif action == "tick":
            network.now += number % 45
        return None
    assert all(item.trace is result.trace for item in getattr(result, "results", ()))
    return without_traces(result), result.trace


def step_twins(cluster, twin, recorder, action, number, keys):
    """One step on both: the columns the twin recorded, if it made a trace."""
    counted, reference = (run_step(each, action, number, keys) for each in (cluster, twin))
    columns = recorder.take()
    if counted is None:
        assert columns.message_count == 0, action
        columns = None
    else:
        (result, summary), (twin_result, twin_summary) = counted, reference
        assert type(summary) is TraceSummary and summary.on_message is None
        assert twin_summary.on_message is recorder
        assert summary == twin_summary, action
        assert (summary.message_count, summary.total_bytes, summary.timeout_count) == \
            columns.counts(), action
        assert result == twin_result, action
    assert stores(cluster.network) == stores(twin.network)
    assert random_states(cluster) == random_states(twin)
    return columns


#: One step: an action and a number it reads bits and remainders of.
steps = st.lists(
    st.tuples(st.sampled_from(["insert", "retrieve", "retrieve", "insert_many",
                               "retrieve_many", "sync", "join", "leave", "fail",
                               "tick"]),
              st.integers(min_value=0, max_value=(1 << 48) - 1)),
    min_size=1, max_size=40)


@pytest.mark.parametrize("name", OVERLAYS)
@given(steps=steps, seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=25, deadline=None)
def test_a_summary_counts_what_the_column_trace_records(name, steps, seed):
    cluster, twin, recorder = build_twins(name, seed)
    keys = [f"key-{index}" for index in range(12)]
    for action, number in steps:
        step_twins(cluster, twin, recorder, action, number, keys)


@pytest.mark.parametrize("name", OVERLAYS)
def test_a_seeded_churn_stream_counts_every_kind_of_message(name):
    # The hypothesis test's stream, seeded and long enough that every way a
    # message is recorded is taken: timed-out requests, multi-entry
    # exchanges, sync messages and routing retries (not on CAN, which keeps
    # no stale state).
    cluster, twin, recorder = build_twins(name, 7)
    rng, keys = random.Random(11), [f"key-{index}" for index in range(12)]
    actions = ["insert", "retrieve", "retrieve", "insert_many", "retrieve_many",
               "sync", "join", "leave", "fail", "tick", "tick"]
    seen = {}
    for _ in range(300):
        action, number = rng.choice(actions), rng.getrandbits(48)
        columns = step_twins(cluster, twin, recorder, action, number, keys)
        if columns is not None:
            for kind, count in columns.count_by_kind().items():
                seen[kind] = seen.get(kind, 0) + count
            seen["timeouts"] = seen.get("timeouts", 0) + columns.timeout_count
            seen["multi-entry"] = seen.get("multi-entry", 0) + sum(
                size > cluster.network.message_sizes.data_bytes for size in columns.size_bytes)
    assert seen["timeouts"] > 0 and seen["multi-entry"] > 0
    assert seen[MessageKind.SYNC_SUMMARY] > 0 and seen[MessageKind.SYNC_DELTA] > 0
    assert (MessageKind.LOOKUP_RETRY in seen) == (name != "can")
