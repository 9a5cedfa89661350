"""The timestamp cross-check detector: soundness on honest runs, power under attack.

Soundness is the load-bearing property: during retrieval the UMS hands the
detector the responsible's ``last_ts`` claim plus every timestamp actually
observed on a replica, and no replica can legitimately carry a timestamp
*newer* than the KTS counter that generated it — so a claim strictly behind
an observed replica is a provable lie, and on honest runs the detector must
stay silent across the **entire** scenario registry (zero false positives).
Power is then pinned at a fixed seed: stale-replay byzantine responsibles at
fraction 0.2 produce a detection rate of at least 10% of the measured
queries on every built-in overlay.
"""

from __future__ import annotations

import pytest

from repro.core.detector import CrossCheckDetector
from repro.simulation import SimulationParameters
from repro.simulation.adversary import byzantine_scenario_spec
from repro.simulation.results import QueryObservation, RunResult
from repro.simulation.scenarios import SCENARIOS, run_scenario

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")

#: Scenarios whose registered default configuration includes a byzantine
#: fault — the only ones allowed to trip the detector.
ADVERSARIAL_SCENARIOS = ("byzantine-timestamps", "eclipse")


class TestDetectorUnit:
    def test_claim_behind_an_observed_replica_is_flagged(self):
        detector = CrossCheckDetector()
        assert detector.observe("k", 2, [1, 3]) is True
        assert detector.flag_count == 1
        assert detector.flags == [{"key": "k", "claimed": 2,
                                   "observed_max": 3, "divergence": 1}]

    def test_claim_at_or_ahead_of_the_replicas_is_never_flagged(self):
        detector = CrossCheckDetector()
        assert detector.observe("k", 3, [1, 3]) is False
        assert detector.observe("k", 9, [1, 3]) is False  # legitimate staleness
        assert detector.flag_count == 0
        assert detector.checks == 2

    def test_no_claim_counts_as_zero(self):
        detector = CrossCheckDetector()
        assert detector.observe("k", None, [1]) is True

    def test_empty_observation_is_not_a_check(self):
        detector = CrossCheckDetector()
        assert detector.observe("k", 5, []) is False
        assert detector.checks == 0

    def test_window_tolerates_bounded_divergence(self):
        detector = CrossCheckDetector(window=2)
        assert detector.observe("k", 1, [3]) is False
        assert detector.observe("k", 1, [4]) is True

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            CrossCheckDetector(window=-1)

    def test_reset_clears_state(self):
        detector = CrossCheckDetector()
        detector.observe("k", 0, [5])
        detector.reset()
        assert detector.checks == 0
        assert detector.flags == []


class TestRunResultAdversarialMetrics:
    @staticmethod
    def _observation(**overrides):
        base = dict(time=1.0, key="k", response_time_s=0.1, messages=3,
                    replicas_inspected=1, found=True, is_current=True,
                    stale=False, flagged=False)
        base.update(overrides)
        return QueryObservation(**base)

    def test_metrics_over_a_synthetic_run(self):
        result = RunResult(algorithm="ums-direct", num_peers=4, num_replicas=2)
        result.record_query(self._observation())                         # clean
        result.record_query(self._observation(stale=True))               # violation
        result.record_query(self._observation(is_current=False,
                                              stale=True, flagged=True))  # caught
        result.record_query(self._observation(found=False,
                                              is_current=False))          # miss
        assert result.stale_results == 2
        assert result.currency_violations == 1
        assert result.detected_lies == 1
        assert result.undetected_stale_rate == 0.5
        assert result.true_currency_rate == 0.25
        summary = result.summary()
        assert summary["currency_violations"] == 1.0
        assert summary["detected_lies"] == 1.0
        assert summary["undetected_stale_rate"] == 0.5
        assert summary["true_currency_rate"] == 0.25

    def test_metrics_default_to_zero_on_an_empty_run(self):
        result = RunResult(algorithm="ums-direct", num_peers=4, num_replicas=2)
        assert result.stale_results == 0
        assert result.currency_violations == 0
        assert result.detected_lies == 0
        assert result.undetected_stale_rate == 0.0
        assert result.true_currency_rate == 0.0

    def test_pre_adversary_payloads_deserialise(self):
        # Observations recorded before the stale/flagged fields existed.
        payload = dict(time=1.0, key="k", response_time_s=0.1, messages=3,
                       replicas_inspected=1, found=True, is_current=True)
        observation = QueryObservation.from_dict(payload)
        assert observation.stale is False
        assert observation.flagged is False


class TestHonestRunsHaveZeroFalsePositives:
    @pytest.mark.parametrize("scenario", sorted(
        set(SCENARIOS) - set(ADVERSARIAL_SCENARIOS)))
    def test_full_registry_is_clean(self, scenario):
        parameters = SimulationParameters.quick(
            seed=2007, num_peers=80, num_keys=6, num_queries=20,
            duration_s=600.0, update_rate_per_hour=30.0)
        result = run_scenario(scenario, parameters)
        assert result.detected_lies == 0
        assert result.currency_violations == 0

    @pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
    def test_plain_paper_workload_is_clean(self, protocol):
        result = run_scenario("uniform", SimulationParameters.quick(
            seed=2007, protocol=protocol, update_rate_per_hour=30.0))
        assert result.detected_lies == 0
        assert result.currency_violations == 0


class TestDetectionPowerUnderAttack:
    @pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
    def test_stale_replay_detection_rate_lower_bound(self, protocol):
        # Fixed seed; the run is fully deterministic, so the bound is stable.
        parameters = SimulationParameters.quick(
            seed=3, num_peers=120, num_keys=10, num_queries=80,
            duration_s=600.0, update_rate_per_hour=60.0)
        result = run_scenario(byzantine_scenario_spec(0.2), parameters,
                              protocol=protocol)
        assert result.fault_events == 1
        assert result.detected_lies >= 0.1 * result.query_count
        # Every detection corresponds to a query the service correctly
        # refused to certify: lies starve certification, they don't forge it.
        assert result.currency_rate < 1.0
