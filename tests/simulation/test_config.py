"""Unit tests for the simulation parameters (Table 1) and algorithm registry."""

from __future__ import annotations

import pytest

from repro.simulation.config import Algorithm, SimulationParameters


class TestAlgorithm:
    def test_registry_contains_the_three_algorithms(self):
        assert set(Algorithm.ALL) == {"brk", "ums-indirect", "ums-direct"}

    def test_labels_match_the_paper(self):
        assert Algorithm.label("brk") == "BRK"
        assert Algorithm.label("ums-direct") == "UMS-Direct"
        assert Algorithm.label("ums-indirect") == "UMS-Indirect"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            Algorithm.validate("paxos")


class TestTable1Defaults:
    def test_defaults_match_table1(self):
        parameters = SimulationParameters.table1()
        assert parameters.num_peers == 10_000
        assert parameters.num_replicas == 10
        assert parameters.churn_rate_per_s == 1.0
        assert parameters.failure_rate == 0.05
        assert parameters.update_rate_per_hour == 1.0
        assert parameters.latency_mean_s == pytest.approx(0.2)
        assert parameters.bandwidth_mean_bps == pytest.approx(56_000.0)

    def test_describe_is_flat(self):
        description = SimulationParameters.quick().describe()
        assert description["algorithm"] == Algorithm.UMS_DIRECT
        assert "num_peers" in description and "failure_rate" in description


class TestPresets:
    def test_quick_preset_is_small(self):
        parameters = SimulationParameters.quick()
        assert parameters.num_peers <= 1000
        assert parameters.duration_s <= 3600

    def test_cluster_preset_uses_cluster_cost_model(self):
        parameters = SimulationParameters.cluster()
        assert parameters.num_peers == 64
        assert parameters.cost_model_preset == "cluster"
        model = parameters.build_cost_model()
        assert model.latency_mean_s < 0.2

    def test_wide_area_cost_model_matches_parameters(self):
        parameters = SimulationParameters.table1(latency_mean_s=0.3)
        model = parameters.build_cost_model()
        assert model.latency_mean_s == pytest.approx(0.3)

    def test_with_overrides_copies(self):
        base = SimulationParameters.quick()
        changed = base.with_overrides(num_peers=500, algorithm=Algorithm.BRK)
        assert changed.num_peers == 500
        assert changed.algorithm == Algorithm.BRK
        assert base.num_peers != 500


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"num_peers": 1},
        {"num_replicas": 0},
        {"num_keys": 0},
        {"duration_s": 0.0},
        {"num_queries": 0},
        {"failure_rate": 1.5},
        {"churn_rate_per_s": -1.0},
        {"update_rate_per_hour": -0.1},
        {"algorithm": "bogus"},
        {"cost_model_preset": "satellite"},
    ])
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ValueError):
            SimulationParameters.quick(**overrides)
