"""Every caller gets a :class:`~repro.dht.messages.TraceSummary`; the
harness prices its retrieves through the summary's message hook.

A ``Session`` and the node server record a summary with no hook (their
callers read the message count, and a reply carries the summary alone); the
simulation harness sets its network's ``on_message`` around each retrieve,
and only a retrieve, so the cost model prices each message as it is
recorded.
"""

from __future__ import annotations

from trace_columns import record_columns

from repro.api import Cluster
from repro.dht.messages import TraceSummary
from repro.net.server import NodeServer
from repro.simulation import SimulationHarness, SimulationParameters
from repro.simulation.engine import Simulator


def test_a_session_result_carries_a_summary():
    cluster = Cluster.build(peers=32, replicas=4, seed=5)
    assert cluster.network.on_message is None
    with cluster.session() as session:
        results = [session.insert("k", 1), session.retrieve("k"),
                   session.insert_many([("a", 1), ("b", 2)]),
                   session.retrieve_many(["a", "b", "missing"])]
    for result in results:
        assert type(result.trace) is TraceSummary and result.trace.on_message is None
        assert result.message_count == result.trace.message_count > 0
    assert session.messages_sent == sum(result.message_count for result in results)


def test_a_served_result_carries_a_summary():
    server = NodeServer(peers=16, replicas=4, seed=11)
    requests = [{"op": "insert", "key": "k", "data": 1},
                {"op": "retrieve", "key": "k"},
                {"op": "insert_many", "items": [["a", 1], ["b", 2]]},
                {"op": "retrieve_many", "keys": ["a", "missing"]}]
    for request in requests:
        reply = server.handle_request(request)
        assert reply["ok"], reply
        assert type(reply["result"].trace) is TraceSummary


def test_the_harness_prices_retrieves_that_carry_columns():
    # A harness retrieve's response time is the sum of the cost model's
    # message delays over the messages a seeded twin records for the same
    # retrieve, drawn in the same order from the same stream.
    harness, twin = (SimulationHarness(SimulationParameters(num_peers=40, num_keys=3, seed=3))
                     for _ in range(2))
    for each in (harness, twin):
        each.setup()
        each.sim = Simulator()
    draws = harness.cost_model.rng.getstate()
    harness._make_update_callback(harness.keys[0])()     # inserts stay unpriced
    assert harness.cost_model.rng.getstate() == draws
    harness._make_query_callback(harness.keys[0])()
    assert harness.network.on_message is None
    response_time = harness._result.queries[-1].response_time_s

    twin._make_update_callback(twin.keys[0])()
    columns = record_columns(twin.network)
    twin.session.retrieve(twin.keys[0])
    priced = [twin.cost_model.message_delay(*message) for message in columns]
    assert len(priced) == harness._result.queries[-1].messages > 0
    assert response_time == sum(priced) > 0.0
