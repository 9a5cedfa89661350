"""Tests of run plans: content hashing, serialisation, seed derivation."""

from __future__ import annotations

import pytest

from repro.execution import RunPlan, RunPoint, derive_seed, plan_artifact_path
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import ScenarioSpec, get_scenario


def quick(**overrides) -> SimulationParameters:
    defaults = dict(num_peers=60, num_keys=5, duration_s=300.0, num_queries=6,
                    seed=11)
    defaults.update(overrides)
    return SimulationParameters.quick(**defaults)


class TestDeriveSeed:
    def test_repetition_zero_is_the_base_seed(self):
        assert derive_seed(2007, 0) == 2007

    def test_later_repetitions_are_deterministic_and_distinct(self):
        seeds = [derive_seed(2007, repetition) for repetition in range(5)]
        assert seeds == [derive_seed(2007, repetition) for repetition in range(5)]
        assert len(set(seeds)) == len(seeds)

    def test_different_bases_diverge(self):
        assert derive_seed(1, 3) != derive_seed(2, 3)

    def test_none_base_stays_none(self):
        assert derive_seed(None, 0) is None
        assert derive_seed(None, 4) is None

    def test_negative_repetition_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(7, -1)


class TestRunPoint:
    def test_content_hash_is_stable_across_equal_constructions(self):
        assert (RunPoint(quick()).content_hash
                == RunPoint(quick()).content_hash)

    def test_content_hash_tracks_every_parameter(self):
        base = RunPoint(quick()).content_hash
        assert RunPoint(quick(seed=12)).content_hash != base
        assert RunPoint(quick(num_peers=61)).content_hash != base
        assert RunPoint(quick(), repetitions=2).content_hash != base
        scenario = get_scenario("hotspot")
        assert RunPoint(quick(), scenario=scenario).content_hash != base

    def test_the_default_scenario_is_uniform(self):
        point = RunPoint(quick())
        assert point.scenario == get_scenario("uniform")
        assert (point.content_hash
                == RunPoint(quick(), scenario=get_scenario("uniform")).content_hash)

    def test_label_does_not_participate_in_the_hash(self):
        assert (RunPoint(quick(), label="a").content_hash
                == RunPoint(quick(), label="b").content_hash)

    def test_scenario_overrides_fold_into_the_effective_parameters(self):
        scenario = ScenarioSpec(name="pinned", overrides={"num_peers": 90})
        point = RunPoint(quick(), scenario=scenario)
        assert point.parameters.num_peers == 90
        assert point.scenario.overrides == {}

    def test_add_keyword_overrides_beat_the_spec(self):
        scenario = ScenarioSpec(name="pinned", overrides={"num_peers": 90})
        point = RunPlan().add(quick(), scenario=scenario, num_peers=70)
        assert point.parameters.num_peers == 70
        assert point.scenario.overrides == {}

    def test_seed_for_derives_per_repetition(self):
        point = RunPoint(quick(), repetitions=3)
        assert point.seed_for(0) == point.parameters.seed
        assert point.seed_for(1) == derive_seed(point.parameters.seed, 1)
        with pytest.raises(ValueError):
            point.seed_for(3)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError):
            RunPoint(quick(), repetitions=0)

    def test_round_trips_through_dict(self):
        scenario = get_scenario("hotspot")
        point = RunPoint(quick(), scenario=scenario, repetitions=2, label="x")
        rebuilt = RunPoint.from_dict(point.to_dict())
        assert rebuilt.parameters == point.parameters
        assert rebuilt.scenario == point.scenario
        assert rebuilt.repetitions == 2 and rebuilt.label == "x"
        assert rebuilt.content_hash == point.content_hash


class TestRunPlan:
    def build(self) -> RunPlan:
        plan = RunPlan(name="unit")
        for peers in (60, 80):
            plan.add(quick(num_peers=peers), label=str(peers))
        return plan

    def test_container_protocol(self):
        plan = self.build()
        assert len(plan) == 2
        assert [point.label for point in plan] == ["60", "80"]
        assert plan[1].parameters.num_peers == 80
        assert plan.labels() == ["60", "80"]

    def test_total_runs_counts_repetitions(self):
        plan = self.build()
        plan.add(quick(num_peers=100), repetitions=3)
        assert plan.total_runs == 5

    def test_plan_hash_tracks_points_and_order(self):
        assert self.build().plan_hash == self.build().plan_hash
        reordered = RunPlan(name="unit")
        for peers in (80, 60):
            reordered.add(quick(num_peers=peers), label=str(peers))
        assert reordered.plan_hash != self.build().plan_hash

    def test_round_trips_through_dict(self):
        plan = self.build()
        plan.add(quick(), scenario=get_scenario("hotspot"), label="scenario")
        rebuilt = RunPlan.from_dict(plan.to_dict())
        assert rebuilt.name == plan.name
        assert rebuilt.plan_hash == plan.plan_hash
        assert [point.label for point in rebuilt] == plan.labels()

    def test_manifest_names_the_grid(self):
        manifest = self.build().manifest()
        assert manifest["name"] == "unit"
        assert manifest["total_runs"] == 2
        assert [entry["seed"] for entry in manifest["points"]] == [11, 11]
        assert all(len(entry["content_hash"]) == 64
                   for entry in manifest["points"])

    def test_artifact_path_is_a_function_of_name_and_hash(self, tmp_path):
        plan = self.build()
        path = plan_artifact_path(tmp_path, plan)
        assert path.name == f"unit-{plan.plan_hash[:12]}.json"
        assert plan_artifact_path(tmp_path, plan) == path
