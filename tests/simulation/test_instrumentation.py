"""Tests for the harness's maintenance and instrumentation options
(periodic inspection, p_t sampling)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.simulation import Algorithm, SimulationParameters, run_scenario


def parameters(**overrides):
    defaults = dict(num_peers=100, num_keys=6, duration_s=600.0, num_queries=8,
                    churn_rate_per_s=0.05, failure_rate=0.5, seed=77,
                    algorithm=Algorithm.UMS_DIRECT)
    defaults.update(overrides)
    return SimulationParameters(**defaults)


class TestPeriodicInspection:
    def test_disabled_by_default(self):
        result = run_scenario("uniform", parameters())
        assert result.inspections_performed == 0
        assert result.counter_corrections == 0

    def test_inspections_run_at_the_configured_interval(self):
        result = run_scenario("uniform", parameters(inspection_interval_s=100.0))
        # 600 s run with a 100 s interval -> 5 full intervals before the end.
        assert 4 <= result.inspections_performed <= 6

    def test_inspection_is_skipped_for_brk(self):
        result = run_scenario("uniform", parameters(algorithm=Algorithm.BRK,
                                           inspection_interval_s=100.0))
        assert result.inspections_performed == 0

    def test_inspection_does_not_hurt_currency(self):
        without = run_scenario("uniform", parameters())
        with_inspection = run_scenario("uniform", parameters(inspection_interval_s=60.0))
        assert with_inspection.currency_rate >= without.currency_rate - 0.2

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            parameters(inspection_interval_s=-1.0)


class TestCurrencySampling:
    def test_disabled_by_default(self):
        result = run_scenario("uniform", parameters())
        assert result.currency_series is None
        assert result.avg_currency_probability == 0.0

    def test_series_is_sampled_over_the_run(self):
        result = run_scenario("uniform", parameters(currency_sample_interval_s=50.0))
        assert result.currency_series is not None
        assert 10 <= len(result.currency_series) <= 13
        times = result.currency_series.times()
        assert times[0] == pytest.approx(50.0)
        assert times[-1] <= 600.0

    def test_sampled_probabilities_are_probabilities(self):
        result = run_scenario("uniform", parameters(currency_sample_interval_s=50.0))
        assert all(0.0 <= value <= 1.0 for value in result.currency_series.values())
        assert 0.0 < result.avg_currency_probability <= 1.0

    def test_zero_churn_keeps_currency_at_one(self):
        result = run_scenario("uniform", parameters(churn_rate_per_s=0.0,
                                           currency_sample_interval_s=100.0))
        assert result.avg_currency_probability == pytest.approx(1.0)

    def test_summary_includes_maintenance_counters(self):
        result = run_scenario("uniform", parameters(inspection_interval_s=100.0))
        summary = result.summary()
        assert summary["inspections"] == float(result.inspections_performed)
        assert "counter_corrections" in summary


class TestLoopPins:
    """Both loops on, pinned by the hash of the whole ``RunResult.to_dict()``.

    Inspection every 70 s and sampling every 105 s meet at 210 s and 420 s,
    the two ``correlated-failures`` bursts, so the pins also fix the order of
    callbacks due at the same simulated time.
    """

    @pytest.mark.parametrize("scenario,algorithm,digest", [
        ("uniform", Algorithm.UMS_DIRECT, "281143e3de68545e"),
        ("uniform", Algorithm.UMS_INDIRECT, "397351b4f4c55bd4"),
        ("uniform", Algorithm.BRK, "a563feb42f0dd07d"),
        ("correlated-failures", Algorithm.UMS_DIRECT, "ded525235c46e71c"),
        ("correlated-failures", Algorithm.UMS_INDIRECT, "8af22ea2a32669df"),
        ("correlated-failures", Algorithm.BRK, "aad000ba0d5c8ec1"),
        ("partition", Algorithm.UMS_DIRECT, "d3c8bbcefd15c429"),
        ("partition", Algorithm.UMS_INDIRECT, "da5785f02cfade58"),
        ("partition", Algorithm.BRK, "f96372b7ae2b299b"),
        ("lossy-network", Algorithm.UMS_DIRECT, "2bd89525e20f3a9f"),
        ("lossy-network", Algorithm.UMS_INDIRECT, "8b82a04fa28e89a6"),
        ("lossy-network", Algorithm.BRK, "4a2d46a55f423591"),
    ])
    def test_seeded_run_with_both_loops_is_bit_identical(self, scenario, algorithm,
                                                         digest):
        result = run_scenario(scenario, parameters(
            algorithm=algorithm, inspection_interval_s=70.0,
            currency_sample_interval_s=105.0))
        assert result.inspections_performed == (0 if algorithm == Algorithm.BRK else 8)
        assert len(result.currency_series) == 5
        assert hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()
                              ).hexdigest()[:16] == digest
