"""Regression suite: message accounting is comparable across services.

Audit (summary).  Both services route every replica probe through
``DHTNetwork.get``, which records the lookup hops plus exactly one
GET request/reply pair — so the *per-probe* cost is identical between
``UpdateManagementService.retrieve`` and ``BricksService.retrieve``; what
differs is only what the algorithms do (UMS adds one KTS ``last_ts`` exchange
and stops early, BRK fetches every replica).  The historical divergence was
at the result surface: BRK had its own copy of ``message_count`` on separate
result types (free to drift from the UMS one), and insert results had no
``message_count`` at all.  With the shared result types both services expose
the same accounting, and this suite pins the invariants so the costs reported
by the harness and figures stay comparable:

* one GET request/reply pair per inspected replica, for both services;
* an unreachable replica holder costs one timed-out request (no reply), for
  both services;
* UMS's retrieval decomposes exactly into the KTS exchange plus the probes;
  at ``Consistency.ANY`` the two services are message-for-message identical;
* ``message_count`` equals the trace length on every result of both services;
* the trace-free fast path (no trace attached) changes neither
  any operation result nor the accounting of traced operations: both services
  always trace, so every message the harness and figures count still comes
  from the hop-simulated ``route(...)`` walk.
"""

from __future__ import annotations

import pytest
from trace_columns import record_columns

from repro.api import Cluster, Consistency
from repro.dht.messages import MessageKind


def column_cluster():
    """The suite's cluster, with a column recorder: it counts messages by kind."""
    cluster = Cluster.build(peers=48, replicas=8, seed=3)
    record_columns(cluster.network)
    return cluster


def traced(cluster, operation, *args, **kwargs):
    """``operation``'s result and the columns of the messages it sent."""
    return cluster.network.on_message.run(operation, *args, **kwargs)


@pytest.fixture
def cluster():
    return column_cluster()


@pytest.fixture
def services(cluster):
    ums, brk = cluster.service("ums"), cluster.service("brk")
    ums.insert("k-ums", "v")
    brk.insert("k-brk", "v")
    return ums, brk


class TestPerProbeParity:
    def test_one_get_pair_per_inspected_replica_for_both_services(self, cluster, services):
        for service, key in zip(services, ("k-ums", "k-brk")):
            result, columns = traced(cluster, service.retrieve, key)
            kinds = columns.count_by_kind()
            assert kinds[MessageKind.GET_REQUEST] == result.replicas_inspected
            assert kinds[MessageKind.GET_REPLY] == result.replicas_inspected

    def test_any_level_is_message_for_message_identical(self, cluster, services):
        ums, brk = services
        ums_kinds = traced(cluster, ums.retrieve, "k-ums",
                           consistency=Consistency.ANY)[1].count_by_kind()
        brk_kinds = traced(cluster, brk.retrieve, "k-brk",
                           consistency=Consistency.ANY)[1].count_by_kind()
        # Same shape: one routed probe, one GET pair, nothing else.
        assert set(ums_kinds) == set(brk_kinds)
        assert ums_kinds[MessageKind.GET_REQUEST] == \
            brk_kinds[MessageKind.GET_REQUEST] == 1
        assert ums_kinds[MessageKind.GET_REPLY] == \
            brk_kinds[MessageKind.GET_REPLY] == 1

    def test_ums_retrieve_decomposes_into_kts_plus_probes(self, cluster, services):
        ums, _brk = services
        result, columns = traced(cluster, ums.retrieve, "k-ums")
        kinds = columns.count_by_kind()
        # Exactly one KTS exchange...
        assert kinds[MessageKind.LAST_TS_REQUEST] == 1
        assert kinds[MessageKind.LAST_TS_REPLY] == 1
        # ... and nothing beyond routing, the KTS pair and the probe pairs.
        accounted = (kinds.get(MessageKind.LOOKUP_HOP, 0)
                     + kinds.get(MessageKind.LOOKUP_RETRY, 0)
                     + 2  # the KTS request/reply
                     + 2 * result.replicas_inspected)
        assert result.message_count == accounted

    def test_brk_retrieve_is_probes_only(self, cluster, services):
        _ums, brk = services
        result, columns = traced(cluster, brk.retrieve, "k-brk")
        kinds = columns.count_by_kind()
        assert MessageKind.LAST_TS_REQUEST not in kinds
        assert MessageKind.TSR not in kinds
        accounted = (kinds.get(MessageKind.LOOKUP_HOP, 0)
                     + kinds.get(MessageKind.LOOKUP_RETRY, 0)
                     + 2 * result.replicas_inspected)
        assert result.message_count == accounted


class TestUnreachableParity:
    def test_unreachable_probe_costs_one_timed_out_request_for_both(self, cluster,
                                                                    services):
        ums, brk = services
        for service, key in ((ums, "k-ums"), (brk, "k-brk")):
            holders = frozenset(cluster.network.responsible_peer(key, h)
                                for h in cluster.replication)
            result, columns = traced(cluster, service.retrieve, key, unreachable=holders)
            kinds = columns.count_by_kind()
            # Every probe timed out: requests recorded, no replies at all.
            assert result.trace.timeout_count == result.replicas_inspected
            assert MessageKind.GET_REPLY not in kinds
            assert not result.found


class TestResultSurfaceParity:
    def test_message_count_equals_trace_length_everywhere(self, cluster):
        for name in ("ums", "brk"):
            with cluster.session(service=name) as session:
                for operation, argument in ((session.insert, (f"parity-{name}", "v")),
                                            (session.retrieve, (f"parity-{name}",)),
                                            (session.retrieve_many, ([f"parity-{name}"],))):
                    result, columns = traced(cluster, operation, *argument)
                    assert result.message_count == len(columns.messages) > 0

    def test_insert_results_expose_message_count_for_both_services(self, cluster):
        with cluster.session() as session:
            ums_insert = session.insert("a", "v")
        with cluster.session(service="brk") as session:
            brk_insert = session.insert("b", "v")
        assert ums_insert.message_count > 0
        assert brk_insert.message_count > 0

    def test_shared_result_types_across_services(self, cluster):
        with cluster.session() as session:
            ums_result = session.retrieve("whatever")
        with cluster.session(service="brk") as session:
            brk_result = session.retrieve("whatever")
        assert type(ums_result) is type(brk_result)


class TestFastPathParity:
    """The trace-free fast path must be accounting-invisible.

    Untraced DHT operations skip the hop simulation entirely, so interleaving
    them with service traffic must not change what the traced operations
    report — same replica placement, same results, same message counts as a
    twin cluster that never used the fast path.
    """

    def _twin(self):
        return column_cluster()

    def test_interleaved_untraced_ops_do_not_change_traced_accounting(self):
        plain, interleaved = self._twin(), self._twin()
        fn = next(iter(interleaved.replication))
        counts = {}
        for name, cluster in (("plain", plain), ("interleaved", interleaved)):
            with cluster.session(service="ums") as session:
                session.insert("k", "v1")
                if name == "interleaved":
                    # Fast-path traffic between the traced operations.
                    for index in range(25):
                        cluster.network.put(f"side-{index}", fn, index,
                                            version=index)
                        cluster.network.get(f"side-{index}", fn)
                result, columns = traced(cluster, session.retrieve, "k")
                assert result.found and result.is_current
                counts[name] = (result.message_count,
                                tuple(sorted(columns.count_by_kind().items())))
        assert counts["plain"] == counts["interleaved"]

    def test_untraced_service_results_match_traced_placement(self):
        cluster = self._twin()
        with cluster.session() as session:
            session.insert("k", "payload")
        network = cluster.network
        for fn in cluster.replication:
            responsible = network.responsible_peer("k", fn)
            fast = network.get("k", fn)           # fast path
            trace = network.new_trace()
            routed = network.get("k", fn, trace=trace)  # hop-simulated
            assert (fast is None) == (routed is None)
            if fast is not None:
                assert fast.data == routed.data == "payload"
                assert network.lookup("k", fn).responsible == responsible
