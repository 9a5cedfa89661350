"""Service-conformance suite (mirror of tests/dht/test_overlay_conformance.py).

Every currency service registered in :mod:`repro.api.services` must honour
the :class:`~repro.api.services.CurrencyService` contract — shared result
types, consistency levels, batched operations — over *every* overlay
registered in :mod:`repro.dht.registry`.  The suite runs the identical
insert/retrieve/churn round-trips over the full service × overlay matrix, so
a newly registered algorithm or overlay is automatically held to the same
bar.
"""

from __future__ import annotations

import pytest

from repro.api import Cluster, Consistency
from repro.api.results import BatchInsertResult, BatchRetrieveResult
from repro.api.results import InsertResult, RetrieveResult
from repro.api.services import CurrencyService, SERVICES
from repro.dht.registry import OVERLAYS

BUILTIN_SERVICES = ("ums", "brk")
BUILTIN_OVERLAYS = ("chord", "can", "kademlia")


def test_suite_covers_every_registered_service_and_overlay():
    # If a new service/overlay is registered, add it to the matrix below.
    assert set(BUILTIN_SERVICES) == set(SERVICES)
    assert set(BUILTIN_OVERLAYS) == set(OVERLAYS)


@pytest.fixture(params=[(service, overlay)
                        for service in BUILTIN_SERVICES
                        for overlay in BUILTIN_OVERLAYS],
                ids=lambda pair: f"{pair[0]}-{pair[1]}")
def combo(request):
    return request.param


@pytest.fixture
def cluster(combo) -> Cluster:
    service, overlay = combo
    return Cluster.build(peers=40, replicas=6, protocol=overlay,
                         service=service, seed=1234)


class TestResultContract:
    def test_operations_return_the_shared_types(self, cluster):
        with cluster.session() as session:
            insert = session.insert("doc", {"rev": 0})
            retrieve = session.retrieve("doc")
            batch_insert = session.insert_many([("a", 1), ("b", 2)])
            batch_retrieve = session.retrieve_many(["a", "b"])
        assert type(insert) is InsertResult
        assert type(retrieve) is RetrieveResult
        assert type(batch_insert) is BatchInsertResult
        assert type(batch_retrieve) is BatchRetrieveResult
        assert insert.service == cluster.service_name
        assert retrieve.service == cluster.service_name

    def test_service_satisfies_the_protocol(self, cluster):
        assert isinstance(cluster.service(), CurrencyService)

    def test_every_result_carries_a_populated_trace(self, cluster):
        with cluster.session() as session:
            insert = session.insert("doc", {"rev": 0})
            retrieve = session.retrieve("doc")
        assert insert.message_count > 0
        assert retrieve.message_count > 0
        assert insert.message_count == insert.trace.message_count


class TestRoundTrips:
    def test_insert_then_retrieve_returns_the_data(self, cluster):
        with cluster.session() as session:
            session.insert("doc", {"rev": 1})
            result = session.retrieve("doc")
        assert result.found
        assert result.data == {"rev": 1}

    def test_sequential_updates_return_the_latest(self, cluster):
        with cluster.session() as session:
            for revision in range(4):
                session.insert("doc", {"rev": revision})
            result = session.retrieve("doc")
        assert result.data == {"rev": 3}

    def test_missing_key_reports_not_found(self, cluster):
        with cluster.session() as session:
            result = session.retrieve("never-written")
        assert not result.found
        assert result.data is None

    def test_batched_round_trip_matches_singles(self, cluster):
        keys = [f"key-{index}" for index in range(8)]
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in keys)
            batch = session.retrieve_many(keys)
            for key, result in zip(keys, batch):
                assert result.found, key
                assert result.data == {"k": key}
                assert session.retrieve(key).data == result.data

    @pytest.mark.parametrize("level", Consistency.ALL)
    def test_every_consistency_level_answers(self, cluster, level):
        with cluster.session() as session:
            session.insert("doc", {"rev": 9})
            result = session.retrieve("doc", consistency=level)
        assert result.found
        assert result.data == {"rev": 9}
        assert result.consistency == level


class TestChurnRoundTrips:
    def test_round_trip_over_a_churning_network(self, cluster):
        with cluster.session() as session:
            session.insert("the-doc", {"rev": 0})
            for revision in range(1, 4):
                # Mixed churn between updates: leaves and joins (no failures,
                # so no service loses replicas it cannot rebuild).
                for _ in range(5):
                    cluster.network.leave_peer(cluster.network.random_alive_peer())
                    cluster.network.join_peer()
                session.insert("the-doc", {"rev": revision})
            result = session.retrieve("the-doc")
        assert result.found
        assert result.data == {"rev": 3}
        assert result.trace.message_count > 0

    def test_batched_retrieve_survives_churn(self, cluster):
        keys = [f"key-{index}" for index in range(6)]
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in keys)
            for _ in range(10):
                cluster.network.leave_peer(cluster.network.random_alive_peer())
                cluster.network.join_peer()
            batch = session.retrieve_many(keys)
        assert batch.found_count == len(keys)
        for key, result in zip(keys, batch):
            assert result.data == {"k": key}

    def test_currency_certificates_only_from_ums(self, cluster, combo):
        service, _overlay = combo
        with cluster.session() as session:
            session.insert("doc", {"rev": 0})
            result = session.retrieve("doc")
        if service == "ums":
            assert result.is_current
        else:
            assert not result.is_current
