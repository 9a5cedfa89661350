"""Tests of run plans: content hashing, serialisation."""

from __future__ import annotations

from repro.execution import RunPlan, RunPoint
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec


def quick(**overrides) -> SimulationParameters:
    defaults = dict(num_peers=60, num_keys=5, duration_s=300.0, num_queries=6,
                    seed=11)
    defaults.update(overrides)
    return SimulationParameters.quick(**defaults)


class TestRunPoint:
    def test_content_hash_is_stable_across_equal_constructions(self):
        assert (RunPoint(quick()).content_hash
                == RunPoint(quick()).content_hash)

    def test_content_hash_tracks_every_parameter(self):
        base = RunPoint(quick()).content_hash
        assert RunPoint(quick(seed=12)).content_hash != base
        assert RunPoint(quick(num_peers=61)).content_hash != base
        scenario = SCENARIOS["hotspot"]
        assert RunPoint(quick(), scenario=scenario).content_hash != base

    def test_the_default_scenario_is_uniform(self):
        point = RunPoint(quick())
        assert point.scenario == SCENARIOS["uniform"]
        assert (point.content_hash
                == RunPoint(quick(), scenario=SCENARIOS["uniform"]).content_hash)

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

    def test_round_trips_through_dict(self):
        scenario = SCENARIOS["hotspot"]
        point = RunPoint(quick(), scenario=scenario, label="x")
        rebuilt = RunPoint.from_dict(point.to_dict())
        assert rebuilt.parameters == point.parameters
        assert rebuilt.scenario == point.scenario
        assert rebuilt.label == "x"
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

    def test_plan_hash_tracks_points_and_order(self):
        assert self.build().plan_hash == self.build().plan_hash
        reordered = RunPlan(name="unit")
        for peers in (80, 60):
            reordered.add(quick(num_peers=peers), label=str(peers))
        assert reordered.plan_hash != self.build().plan_hash

    def test_round_trips_through_dict(self):
        plan = self.build()
        plan.add(quick(), scenario=SCENARIOS["hotspot"], label="scenario")
        rebuilt = RunPlan.from_dict(plan.to_dict())
        assert rebuilt.name == plan.name
        assert rebuilt.plan_hash == plan.plan_hash
        assert [point.label for point in rebuilt] == plan.labels()

    def test_manifest_names_the_grid(self):
        manifest = self.build().manifest()
        assert manifest["name"] == "unit"
        assert [entry["seed"] for entry in manifest["points"]] == [11, 11]
        assert all(len(entry["content_hash"]) == 64
                   for entry in manifest["points"])
