"""Tests of the per-retrieve consistency levels across both services."""

from __future__ import annotations

import pytest

from repro.api import Cluster, Consistency


@pytest.fixture
def cluster():
    return Cluster.build(peers=64, replicas=8, seed=2024)


class TestUmsConsistency:
    def test_current_is_the_default_and_certifies(self, cluster):
        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k")
        assert result.consistency == Consistency.CURRENT
        assert result.is_current

    def test_any_skips_the_kts_lookup(self, cluster):
        from repro.dht.messages import MessageKind

        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.ANY)
        kinds = result.trace.count_by_kind()
        assert MessageKind.LAST_TS_REQUEST not in kinds
        assert result.found
        assert not result.is_current  # nothing was certified
        assert result.latest_timestamp is None

    def test_any_stops_at_the_first_replica(self, cluster):
        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.ANY)
        assert result.replicas_inspected == 1

    def test_best_effort_bounds_the_probes(self, cluster):
        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.BEST_EFFORT,
                                      max_probes=2)
        assert result.replicas_inspected <= 2

    def test_best_effort_defaults_to_three_probes(self, cluster):
        with cluster.session() as session:
            result = session.retrieve("missing",
                                      consistency=Consistency.BEST_EFFORT)
        assert result.replicas_inspected == 3
        assert not result.found

    def test_best_effort_still_certifies_when_it_meets_the_latest(self, cluster):
        # With every replica current, the very first probe matches the latest
        # timestamp, so even a bounded read comes back certified.
        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.BEST_EFFORT,
                                      max_probes=1)
        assert result.is_current

    def test_best_effort_returns_freshest_found_when_not_current(self, cluster):
        # Make every replica stale except the ones a 1-probe read cannot
        # certify: updating with all holders unreachable leaves the stored
        # replicas one timestamp behind the KTS counter.
        with cluster.session() as session:
            session.insert("k", "old")
            holders = frozenset(cluster.network.responsible_peer("k", h)
                                for h in cluster.replication)
            session.insert("k", "new", unreachable=holders)
            result = session.retrieve("k", consistency=Consistency.BEST_EFFORT,
                                      max_probes=2)
        assert result.found
        assert result.data == "old"
        assert not result.is_current
        assert result.latest_timestamp is not None

    def test_invalid_level_and_probe_count_are_rejected(self, cluster):
        with cluster.session() as session:
            with pytest.raises(ValueError, match="consistency"):
                session.retrieve("k", consistency="serializable")
            with pytest.raises(ValueError, match="max_probes"):
                session.retrieve("k", max_probes=0)


class TestBrkConsistency:
    @pytest.fixture
    def brk_cluster(self):
        return Cluster.build(peers=64, replicas=8, service="brk", seed=2024)

    def test_current_retrieves_every_replica(self, brk_cluster):
        with brk_cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k")
        assert result.replicas_inspected == brk_cluster.replication.factor
        assert not result.is_current

    def test_any_stops_at_the_first_replica(self, brk_cluster):
        with brk_cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.ANY)
        assert result.replicas_inspected == 1
        assert result.found

    def test_best_effort_bounds_the_probes(self, brk_cluster):
        with brk_cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k", consistency=Consistency.BEST_EFFORT)
        assert result.replicas_inspected <= 3
        assert result.version == 1

    def test_levels_thread_through_batches(self, brk_cluster):
        keys = [f"k{i}" for i in range(5)]
        with brk_cluster.session() as session:
            session.insert_many((key, key) for key in keys)
            batch = session.retrieve_many(keys, consistency=Consistency.ANY)
        assert batch.consistency == Consistency.ANY
        for result in batch:
            assert result.consistency == Consistency.ANY
            assert result.replicas_inspected == 1


class TestHarnessConsistency:
    def test_simulation_accepts_consistency_levels(self):
        from repro.simulation import SimulationParameters, run_scenario

        base = dict(num_peers=80, num_keys=6, duration_s=300.0, num_queries=8,
                    churn_rate_per_s=0.01, seed=17)
        current = run_scenario("uniform", SimulationParameters(
            consistency=Consistency.CURRENT, **base))
        any_level = run_scenario("uniform", SimulationParameters(
            consistency=Consistency.ANY, **base))
        assert current.currency_rate > 0.0
        assert any_level.currency_rate == 0.0  # ANY never certifies
        assert any_level.avg_messages < current.avg_messages

    def test_invalid_consistency_is_rejected_by_parameters(self):
        from repro.simulation import SimulationParameters

        with pytest.raises(ValueError, match="consistency"):
            SimulationParameters(num_peers=8, consistency="quorum")
