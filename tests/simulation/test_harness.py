"""Integration-level tests of the simulation harness."""

from __future__ import annotations

import pytest

from repro.simulation import Algorithm, SimulationHarness, SimulationParameters, run_scenario


def quick_parameters(algorithm=Algorithm.UMS_DIRECT, **overrides):
    defaults = dict(num_peers=120, num_keys=8, duration_s=400.0, num_queries=12,
                    churn_rate_per_s=0.02, algorithm=algorithm, seed=31)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


class TestHarnessRuns:
    @pytest.mark.parametrize("algorithm", Algorithm.ALL)
    def test_every_algorithm_completes_and_answers_queries(self, algorithm):
        result = run_scenario("uniform", quick_parameters(algorithm=algorithm))
        assert result.algorithm == algorithm
        assert result.query_count == 12
        assert result.found_rate == pytest.approx(1.0)
        assert result.avg_response_time_s > 0.0
        assert result.avg_messages > 0.0

    def test_ums_queries_are_certified_current(self):
        result = run_scenario("uniform", quick_parameters(algorithm=Algorithm.UMS_DIRECT))
        assert result.currency_rate >= 0.9

    def test_brk_never_certifies_currency(self):
        result = run_scenario("uniform", quick_parameters(algorithm=Algorithm.BRK))
        assert result.currency_rate == 0.0

    def test_brk_costs_more_messages_than_ums_direct(self):
        brk = run_scenario("uniform", quick_parameters(algorithm=Algorithm.BRK))
        ums = run_scenario("uniform", quick_parameters(algorithm=Algorithm.UMS_DIRECT))
        assert brk.avg_messages > ums.avg_messages
        assert brk.avg_response_time_s > ums.avg_response_time_s

    def test_brk_inspects_every_replica_ums_only_a_few(self):
        brk = run_scenario("uniform", quick_parameters(algorithm=Algorithm.BRK))
        ums = run_scenario("uniform", quick_parameters(algorithm=Algorithm.UMS_DIRECT))
        assert brk.avg_replicas_inspected == pytest.approx(brk.num_replicas)
        assert ums.avg_replicas_inspected < brk.avg_replicas_inspected

    def test_same_seed_is_reproducible(self):
        first = run_scenario("uniform", quick_parameters())
        second = run_scenario("uniform", quick_parameters())
        assert first.avg_response_time_s == pytest.approx(second.avg_response_time_s)
        assert first.avg_messages == pytest.approx(second.avg_messages)
        assert first.churn_events == second.churn_events

    def test_different_seeds_differ(self):
        first = run_scenario("uniform", quick_parameters(seed=1))
        second = run_scenario("uniform", quick_parameters(seed=2))
        assert first.avg_response_time_s != pytest.approx(second.avg_response_time_s)

    def test_churn_and_updates_are_accounted(self):
        result = run_scenario("uniform", quick_parameters(
            churn_rate_per_s=0.05, update_rate_per_hour=30.0, duration_s=600.0))
        assert result.churn_events > 0
        assert result.updates_performed > 0
        assert result.failures <= result.churn_events

    def test_parameters_are_recorded_in_the_result(self):
        result = run_scenario("uniform", quick_parameters())
        assert result.parameters["num_peers"] == 120
        assert result.num_replicas == 10

    def test_setup_can_be_called_explicitly(self):
        harness = SimulationHarness(quick_parameters())
        harness.setup()
        assert harness.network.size == 120
        result = harness.run()
        assert result.query_count == 12

    def test_cluster_preset_runs(self):
        parameters = SimulationParameters.cluster(num_peers=32, num_queries=8,
                                                  duration_s=300.0, seed=4)
        result = run_scenario("uniform", parameters)
        assert result.query_count == 8
        # The cluster cost model is fast: sub-second to a few seconds per query.
        assert result.avg_response_time_s < 5.0

    def test_zero_churn_run_is_fully_current(self):
        result = run_scenario("uniform", quick_parameters(churn_rate_per_s=0.0))
        assert result.churn_events == 0
        assert result.currency_rate == pytest.approx(1.0)

    def test_queries_account_wire_bytes(self):
        result = run_scenario("uniform", quick_parameters())
        assert result.avg_bytes > 0.0
        # Every message costs at least its 4-byte frame header, so the byte
        # curve is bounded below by the message curve.
        assert result.avg_bytes >= 4 * result.avg_messages
