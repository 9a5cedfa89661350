"""Which trace each caller gets: counts where only counts are read, columns
where the cost model prices them.

A ``Session`` and the node server record a
:class:`~repro.dht.messages.TraceSummary` (their callers read the message
count, and a reply carries the summary alone); the simulation harness sets
its network's ``column_traces``, so the retrieves it prices carry an
:class:`~repro.dht.messages.OperationTrace`.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.dht.messages import OperationTrace, TraceSummary
from repro.net.server import NodeServer
from repro.simulation import SimulationHarness, SimulationParameters


def test_a_session_result_carries_a_summary():
    cluster = Cluster.build(peers=32, replicas=4, seed=5)
    assert not cluster.network.column_traces
    with cluster.session() as session:
        results = [session.insert("k", 1), session.retrieve("k"),
                   session.insert_many([("a", 1), ("b", 2)]),
                   session.retrieve_many(["a", "b", "missing"])]
    for result in results:
        assert type(result.trace) is TraceSummary
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
    harness = SimulationHarness(SimulationParameters(num_peers=40, num_keys=3, seed=3))
    harness.setup()
    assert harness.network.column_traces
    outcome = harness.session.retrieve(harness.keys[0])
    assert type(outcome.trace) is OperationTrace
    assert harness.cost_model.duration(outcome.trace) > 0.0
