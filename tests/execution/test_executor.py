"""Executor guarantees: serial/parallel parity, caching, progress.

These tests pin the execution layer's contract: ``--jobs N`` reproduces
serial execution bit-for-bit (per-point metrics *and* the aggregate
comparison tables), and a cached re-run returns identical results without
invoking the harness.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.execution.executor as executor_module
from repro.execution import Executor, RunPlan, resolve_jobs
from repro.experiments.figures import EXPERIMENTS, SCALE_PROFILES, run_experiments
from repro.experiments.runner import select_experiments
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import SCENARIOS, run_scenario


def quick(**overrides) -> SimulationParameters:
    defaults = dict(num_peers=60, num_keys=5, duration_s=300.0, num_queries=6,
                    seed=11)
    defaults.update(overrides)
    return SimulationParameters.quick(**defaults)


def snapshot(result) -> str:
    """Canonical byte-level rendering of a run result."""
    return json.dumps(result.to_dict(), sort_keys=True)


def small_grid() -> RunPlan:
    """A 3 peers × 2 algorithms grid (6 points, sub-second per point)."""
    plan = RunPlan(name="parity-grid")
    for peers in (60, 80, 100):
        for algorithm in ("brk", "ums-direct"):
            plan.add(quick(num_peers=peers, algorithm=algorithm),
                     label=f"{peers}/{algorithm}")
    return plan


class TestParity:
    def test_parallel_execution_is_byte_identical_to_serial(self):
        plan = small_grid()
        serial = Executor(jobs=1).run(plan)
        parallel = Executor(jobs=4).run(plan)
        assert [snapshot(result) for result in serial] \
            == [snapshot(result) for result in parallel]

    def test_parallel_comparison_tables_match_serial(self):
        ids = select_experiments(["scenario-compare"])

        def tables(jobs):
            return [table.to_markdown(float_format="%r") for table in
                    run_experiments(ids, "tiny", seed=11, executor=Executor(jobs=jobs))]

        assert tables(1) == tables(4)

    def test_executor_matches_a_direct_harness_run(self):
        parameters = quick()
        plan = RunPlan(name="single")
        plan.add(parameters)
        (result,) = Executor(jobs=1).run(plan)
        assert snapshot(result) == snapshot(run_scenario("uniform", parameters))

    def test_scenario_points_match_run_scenario(self):
        parameters = quick()
        spec = SCENARIOS["hotspot"]
        plan = RunPlan(name="scenario")
        plan.add(parameters, scenario=spec, protocol="kademlia")
        (result,) = Executor(jobs=1).run(plan)
        expected = run_scenario(spec, parameters, protocol="kademlia")
        assert snapshot(result) == snapshot(expected)
        assert result.scenario == "hotspot"


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="the speedup needs 4 CPUs")
def test_four_jobs_run_a_figure7_grid_at_least_twice_as_fast():
    """The pool pays for itself: Figure 7's 4 peer counts x 3 algorithms."""
    profile = dict(SCALE_PROFILES["quick"], peer_counts=(400, 600, 800, 1000),
                   duration_s=1800.0, num_queries=30, num_keys=20)
    plan = RunPlan(name="fig7-grid", points=list(
        EXPERIMENTS["figure-7"].points(profile, seed=2007, protocol="chord").values()))
    assert len(plan) == 12
    seconds, snapshots = {}, {}
    for jobs in (1, 4):
        start = time.perf_counter()
        results = Executor(jobs=jobs).run(plan)
        seconds[jobs] = time.perf_counter() - start
        snapshots[jobs] = [snapshot(result) for result in results]
    assert snapshots[1] == snapshots[4]
    assert seconds[1] / seconds[4] >= 2.0, seconds


class TestCache:
    def test_cached_rerun_is_identical_without_invoking_the_harness(
            self, tmp_path, monkeypatch):
        plan = small_grid()
        first = Executor(jobs=1, cache_dir=tmp_path).run(plan)
        assert len(list(tmp_path.glob("*.json"))) == len(plan)

        def forbidden(point):
            raise AssertionError("harness invoked despite a warm cache")

        monkeypatch.setattr(executor_module, "run_point", forbidden)
        cached = Executor(jobs=1, cache_dir=tmp_path).run(plan)
        assert [snapshot(result) for result in first] \
            == [snapshot(result) for result in cached]

    def test_no_cache_forces_re_execution_and_refreshes_entries(
            self, tmp_path, monkeypatch):
        plan = RunPlan(name="single")
        plan.add(quick())
        Executor(jobs=1, cache_dir=tmp_path).run(plan)

        calls = []
        original = executor_module.run_point

        def counting(point):
            calls.append(point.label)
            return original(point)

        monkeypatch.setattr(executor_module, "run_point", counting)
        Executor(jobs=1, cache_dir=tmp_path, use_cache=False).run(plan)
        assert calls == [None]

    def test_corrupt_or_mismatched_entries_are_treated_as_misses(
            self, tmp_path):
        plan = RunPlan(name="single")
        point = plan.add(quick())
        executor = Executor(jobs=1, cache_dir=tmp_path)
        (first,) = executor.run(plan)
        path = executor.cache.path_for(point)
        path.write_text("{not json", encoding="utf-8")
        (again,) = Executor(jobs=1, cache_dir=tmp_path).run(plan)
        assert snapshot(again) == snapshot(first)

    def test_entries_from_another_version_are_misses(self, tmp_path):
        plan = RunPlan(name="single")
        point = plan.add(quick())
        executor = Executor(jobs=1, cache_dir=tmp_path)
        (first,) = executor.run(plan)
        path = executor.cache.path_for(point)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"]  # entries are version-stamped
        payload["version"] = "0.0.0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert executor.cache.load(point) is None
        (again,) = Executor(jobs=1, cache_dir=tmp_path).run(plan)
        assert snapshot(again) == snapshot(first)

    def test_cache_differentiates_points_by_content(self, tmp_path):
        fast = RunPlan(name="a")
        fast.add(quick())
        other = RunPlan(name="b")
        other.add(quick(seed=12))
        Executor(jobs=1, cache_dir=tmp_path).run(fast)
        Executor(jobs=1, cache_dir=tmp_path).run(other)
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestProgress:
    def test_progress_counts_every_point_in_plan_order(self):
        plan = small_grid()
        progressed = []
        executor = Executor(jobs=1,
                            progress=lambda done, total, point:
                            progressed.append((done, total, point.label)))
        executor.run(plan)
        assert progressed == [(done, len(plan), label)
                              for done, label in enumerate(plan.labels(), start=1)]

    def test_cached_points_still_report_progress(self, tmp_path):
        plan = small_grid()
        Executor(jobs=1, cache_dir=tmp_path).run(plan)
        labels = []
        Executor(jobs=1, cache_dir=tmp_path,
                 progress=lambda done, total, point: labels.append(point.label)
                 ).run(plan)
        assert labels == plan.labels()


class TestJobsResolution:
    def test_explicit_jobs_win(self, monkeypatch):
        monkeypatch.setenv(executor_module.JOBS_ENV, "8")
        assert Executor(jobs=2).jobs == 2

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv(executor_module.JOBS_ENV, "3")
        assert Executor().jobs == 3
        monkeypatch.delenv(executor_module.JOBS_ENV)
        assert Executor().jobs == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


def test_points_survive_pickling_for_the_pool():
    """The pool pickles points; scenario specs and parameters must survive."""
    import pickle

    point = RunPlan().add(quick(), scenario=SCENARIOS["flashcrowd"],
                          protocol="kademlia", label="p")
    clone = pickle.loads(pickle.dumps(point))
    assert clone.content_hash == point.content_hash
