"""Unit tests for the declarative scenario engine."""

from __future__ import annotations

import json
import random

import pytest

from repro.dht.network import DHTNetwork
from repro.simulation.cost import NetworkCostModel
from repro.simulation.engine import Simulator
from repro.simulation import SimulationParameters
from repro.simulation.churn import ChurnProcess
from repro.simulation.scenarios import (
    ARCHETYPES,
    CorrelatedFailureBurst,
    LossyPeriod,
    RegionalPartition,
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    build_arrivals,
    build_fault,
    build_popularity,
    build_profile,
    run_scenario,
)

QUICK = dict(num_peers=80, num_keys=6, duration_s=400.0, num_queries=8,
             churn_rate_per_s=0.05)


class TestPopularityModels:
    def test_uniform_weights_are_equal(self):
        model = build_popularity({})
        assert model.weights(4) == pytest.approx([0.25] * 4)

    def test_zipf_weights_are_normalised_and_skewed(self):
        model = build_popularity({"model": "zipf", "exponent": 1.1})
        weights = model.weights(10)
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] > weights[1] > weights[-1]

    def test_zipf_hot_offset_rotates_the_ranking(self):
        model = build_popularity({"model": "zipf", "exponent": 1.0,
                                  "hot_offset": 3})
        weights = model.weights(5)
        assert max(weights) == weights[3]

    def test_shifting_hotspot_moves_over_time(self):
        model = build_popularity({"model": "shifting-hotspot",
                                  "exponent": 1.2, "phases": 4})
        early = model.weights(8, time_fraction=0.0)
        late = model.weights(8, time_fraction=0.9)
        assert max(early) == early[0]
        assert max(late) == late[6]  # phase 3 of 4 over 8 keys -> offset 6

    def test_choose_returns_a_member_key(self):
        model = build_popularity({"model": "zipf"})
        keys = ["a", "b", "c"]
        rng = random.Random(5)
        assert all(model.choose(keys, 0.5, rng) in keys for _ in range(50))

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="unknown popularity model"):
            build_popularity({"model": "pareto"})


class TestArrivalModels:
    def test_uniform_count_and_bounds(self):
        times = sorted(build_arrivals({}).times(20, 100.0, random.Random(1)))
        assert len(times) == 20
        assert all(0.0 <= time < 100.0 for time in times)

    def test_flash_crowd_concentrates_the_burst_share(self):
        model = build_arrivals({"model": "flash-crowd",
                                "bursts": [[0.5, 0.1, 0.6]]})
        times = sorted(model.times(100, 1000.0, random.Random(2)))
        assert len(times) == 100
        in_window = [time for time in times if 450.0 <= time <= 550.0]
        assert len(in_window) >= 60

    def test_flash_crowd_rejects_windows_outside_the_run(self):
        with pytest.raises(ValueError, match="exceeds the run"):
            build_arrivals({"model": "flash-crowd", "bursts": [[0.99, 0.1, 0.5]]})

    def test_flash_crowd_rejects_overfull_shares(self):
        with pytest.raises(ValueError, match="sum to < 1"):
            build_arrivals({"model": "flash-crowd",
                            "bursts": [[0.3, 0.1, 0.6], [0.7, 0.1, 0.5]]})

    def test_diurnal_is_exact_count_within_bounds(self):
        model = build_arrivals({"model": "diurnal", "cycles": 2,
                                "amplitude": 0.9})
        times = sorted(model.times(200, 3600.0, random.Random(3)))
        assert len(times) == 200
        assert all(0.0 <= time < 3600.0 for time in times)

    def test_poisson_times_stay_within_duration(self):
        model = build_arrivals({"model": "poisson"})
        times = sorted(model.times(50, 500.0, random.Random(4)))
        assert all(0.0 <= time < 500.0 for time in times)


class TestProfiles:
    def test_archetypes_ship(self):
        assert set(ARCHETYPES) == {"auction", "reservation", "agenda"}

    def test_archetype_lookup_and_override(self):
        profile = build_profile({"archetype": "auction"})
        assert profile.update_rate_multiplier == 4.0
        tweaked = build_profile({"archetype": "auction",
                                 "update_rate_multiplier": 8.0})
        assert tweaked.update_rate_multiplier == 8.0
        assert tweaked.updates_follow_popularity

    def test_unknown_archetype_is_rejected(self):
        with pytest.raises(ValueError, match="unknown archetype"):
            build_profile({"archetype": "cdn"})

    def test_scaled_queries_floors_at_one(self):
        profile = build_profile({"query_multiplier": 0.01})
        assert profile.scaled_queries(10) == 1


class TestFaultProfiles:
    def _install(self, fault, *, duration=100.0, peers=40, seed=9):
        network = DHTNetwork.build(peers, seed=seed)
        sim = Simulator()
        cost_model = NetworkCostModel(rng=random.Random(seed))
        churn = ChurnProcess(sim, network, rate_per_s=0.0, failure_rate=1.0,
                             rng=random.Random(seed))
        log = []
        fault.install(sim, network=network, cost_model=cost_model,
                      rng=random.Random(seed), duration_s=duration, log=log,
                      churn=churn)
        sim.run(until=duration)
        return network, cost_model, log

    def test_correlated_burst_fails_the_requested_fraction(self):
        network, _, log = self._install(
            build_fault({"kind": "correlated-burst", "at": 0.5,
                         "fraction": 0.25}))
        assert log[0]["failed"] == 10
        assert network.size == 40  # compensated by joins

    def test_burst_without_rejoin_shrinks_the_population(self):
        network, _, log = self._install(
            CorrelatedFailureBurst(at=0.5, size=5, rejoin=False))
        assert log[0]["failed"] == 5
        assert network.size == 35

    def test_partition_fails_only_the_region(self):
        network, _, log = self._install(
            RegionalPartition(at=0.5, start=0.0, span=0.5, heal_after=None))
        space = 1 << network.bits
        assert log[0]["failed"] > 0
        assert all(peer_id >= space // 2 for peer_id in network.alive_peer_ids())
        assert network.size == 40 - log[0]["failed"]

    def test_partition_heal_restores_the_population(self):
        network, _, log = self._install(
            RegionalPartition(at=0.5, start=0.0, span=0.5, heal_after=0.3))
        assert log[-1]["kind"] == "partition-heal"
        assert log[-1]["rejoined"] == log[0]["failed"]
        assert network.size == 40

    def test_lossy_period_degrades_then_restores(self):
        fault = LossyPeriod(start=0.2, end=0.8, latency_factor=10.0)
        network = DHTNetwork.build(10, seed=3)
        sim = Simulator()
        cost_model = NetworkCostModel(rng=random.Random(3))
        log = []
        fault.install(sim, network=network, cost_model=cost_model,
                      rng=random.Random(3), duration_s=100.0, log=log)
        sim.run(until=50.0)
        assert cost_model.sample_latency() > 1.0  # ~0.2 s nominal, x10
        sim.run(until=100.0)
        assert cost_model.sample_latency() < 1.0
        assert [entry["phase"] for entry in log] == ["degrade", "restore"]

    def test_burst_through_churn_is_counted_as_churn_failures(self):
        network = DHTNetwork.build(30, seed=4)
        sim = Simulator()
        churn = ChurnProcess(sim, network, rate_per_s=0.0, failure_rate=1.0,
                             rng=random.Random(4))
        fault = CorrelatedFailureBurst(at=0.5, size=6)
        log = []
        fault.install(sim, network=network, cost_model=None,
                      rng=random.Random(5), duration_s=10.0, log=log,
                      churn=churn)
        sim.run(until=10.0)
        assert churn.failure_count == 6
        assert all(event.failed for event in churn.events)

    def test_fail_together_respects_the_population_floor(self):
        network = DHTNetwork.build(10, seed=6)
        sim = Simulator()
        churn = ChurnProcess(sim, network, rate_per_s=0.0, failure_rate=1.0,
                             rng=random.Random(6), min_population=8)
        executed = churn.fail_together(network.alive_peer_ids(), rejoin=False)
        assert len(executed) == 2
        assert network.size == 8

    def test_unknown_fault_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            build_fault({"kind": "meteor"})


class TestSpecSerialisation:
    def test_round_trip_through_json(self):
        spec = SCENARIOS["flashcrowd"]
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario-spec keys"):
            ScenarioSpec.from_dict({"name": "x", "popularty": {}})

    def test_name_is_required(self):
        with pytest.raises(ValueError, match="requires a 'name'"):
            ScenarioSpec.from_dict({"description": "anonymous"})

    def test_validate_rejects_bad_components(self):
        spec = ScenarioSpec(name="broken", popularity={"model": "nope"})
        with pytest.raises(ValueError, match="unknown popularity model"):
            spec.validate()


class TestRegistry:
    def test_at_least_six_scenarios_ship(self):
        assert len(SCENARIOS) >= 6
        for required in ("uniform", "hotspot", "shifting-hotspot", "flashcrowd",
                         "correlated-failures", "lossy-network"):
            assert required in SCENARIOS
            assert SCENARIOS[required].name == required


class TestScenarioRuns:
    def test_run_scenario_tags_the_result(self):
        result = run_scenario("hotspot", SimulationParameters(seed=3, **QUICK))
        assert result.scenario == "hotspot"
        assert result.query_count == 8
        assert result.avg_response_time_s > 0.0

    def test_spec_overrides_apply_but_caller_wins(self):
        spec = ScenarioSpec(name="high-failure",
                            overrides={"failure_rate": 0.5, "num_queries": 4})
        result = run_scenario(spec, SimulationParameters(seed=3, **QUICK))
        assert result.parameters["failure_rate"] == 0.5
        assert result.query_count == 4
        overridden = run_scenario(spec, SimulationParameters(seed=3, **QUICK),
                                  num_queries=6)
        assert overridden.query_count == 6

    def test_fault_scenario_reports_fault_events(self):
        result = run_scenario("correlated-failures",
                              SimulationParameters(seed=5, **QUICK))
        assert result.fault_events == 2
        assert result.summary()["fault_events"] == 2.0
        assert result.failures >= result.fault_events

    def test_lossy_scenario_is_slower_than_uniform(self):
        base = run_scenario("uniform", SimulationParameters(seed=7, **QUICK))
        lossy = run_scenario("lossy-network", SimulationParameters(seed=7, **QUICK))
        assert lossy.avg_response_time_s > base.avg_response_time_s

    def test_auction_profile_concentrates_updates_on_hot_keys(self):
        scenario = Scenario(SCENARIOS["auction"])
        keys = [f"item-{index}" for index in range(6)]
        events = scenario.update_schedule(keys, rate_per_hour=30.0,
                                          duration_s=3600.0,
                                          rng=random.Random(11))
        counts = {key: 0 for key in keys}
        for event in events:
            counts[event.key] += 1
        assert counts["item-0"] > counts["item-5"]

    @pytest.mark.parametrize("protocol", ("chord", "kademlia", "can"))
    def test_uniform_scenario_is_the_plain_run(self, protocol):
        # The control scenario *is* the paper's workload: same schedules,
        # same draws, so the same metrics bit for bit.
        for seed in (1, 2, 9):
            parameters = SimulationParameters(seed=seed, protocol=protocol, **QUICK)
            scenario = run_scenario("uniform", parameters)
            plain = run_scenario("uniform", parameters)
            assert scenario.to_dict() == plain.to_dict()
            assert plain.scenario == "uniform"
