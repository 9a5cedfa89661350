"""The executor: run a :class:`~repro.execution.plan.RunPlan`, serially or in parallel.

One :class:`Executor` replaces the grid loops that used to live separately in
``experiments/runner.py``, ``experiments/figures.py``, the ``repro scenario
compare`` CLI path and the ``benchmarks/bench_*.py`` scripts:

* ``jobs=1`` (default) runs the points in plan order in-process;
* ``jobs=N`` fans the individual runs (points × repetitions) out over a
  ``multiprocessing`` pool.  Every run is self-contained — the harness seeds
  all of its RNG streams from the point's parameters — so parallel execution
  is **bit-identical** to serial execution (the repo's standing
  RNG-compatibility guarantee, pinned by ``tests/execution``);
* with a ``cache_dir``, finished points land in a
  :class:`~repro.execution.cache.RunCache` keyed by the point content hash
  and are skipped on re-execution (``use_cache=False`` forces a re-run and
  refreshes the entry);
* ``progress`` / ``on_result`` stream completions as they happen, feeding
  the existing :class:`~repro.simulation.results.RunResult` →
  :func:`~repro.experiments.reporting.comparison_tables` machinery without
  waiting for the whole plan.

``jobs=None`` resolves through the ``REPRO_EXECUTOR_JOBS`` environment
variable (default 1), which is how CI pushes the slow integration grids
through a pool without every call site growing a flag.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
from typing import Callable, Dict, List, Optional, Tuple, Union, cast

from repro.execution.cache import RunCache
from repro.execution.plan import RunPlan, RunPoint
from repro.simulation.results import RunResult

__all__ = ["Executor", "JOBS_ENV", "execute_point", "resolve_jobs", "run_repetition"]

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_EXECUTOR_JOBS"

#: Optional callbacks: ``progress(completed_runs, total_runs, point)`` after
#: every finished run, ``on_result(index, point, results)`` after every
#: finished point (in completion order; cached points first, then executed
#: points in plan order).
ProgressCallback = Callable[[int, int, RunPoint], None]
ResultCallback = Callable[[int, RunPoint, List[RunResult]], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit ``jobs``, or the ``REPRO_EXECUTOR_JOBS`` default (1)."""
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV, "1") or "1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def run_repetition(point: RunPoint, repetition: int) -> RunResult:
    """Execute one repetition of one point (the pool's unit of work).

    Builds a fresh harness from the point's effective parameters (with the
    deterministically derived repetition seed) and a fresh
    :class:`~repro.simulation.scenarios.Scenario` — no state is shared with
    the parent process or other runs, which is what makes parallel execution
    reproduce serial results bit-for-bit.
    """
    # Imported here so a forked/spawned worker resolves everything itself.
    from repro.simulation.harness import SimulationHarness

    parameters = point.parameters
    seed = point.seed_for(repetition)
    if seed != parameters.seed:
        parameters = parameters.with_overrides(seed=seed)
    return SimulationHarness(parameters, scenario=point.scenario).run()


def _run_job(job: Tuple[RunPoint, int]) -> RunResult:
    """Pool adapter around :func:`run_repetition` (must be importable)."""
    point, repetition = job
    return run_repetition(point, repetition)


def execute_point(point: RunPoint) -> List[RunResult]:
    """Execute every repetition of one point, serially, in order."""
    return [run_repetition(point, repetition)
            for repetition in range(point.repetitions)]


class Executor:
    """Runs plans serially or via a process pool, with an optional run cache."""

    def __init__(self, jobs: Optional[int] = None, *,
                 cache_dir: Optional[Union[str, pathlib.Path]] = None,
                 use_cache: bool = True,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        self.use_cache = use_cache
        self.progress = progress

    # ------------------------------------------------------------------- runs
    def execute(self, plan: RunPlan,
                on_result: Optional[ResultCallback] = None
                ) -> List[List[RunResult]]:
        """Run ``plan``; returns one result list per point, in plan order.

        Each inner list holds the point's repetitions in repetition order.
        Cached points are served from the run cache without invoking the
        harness; freshly executed points are stored back when a cache is
        configured (also with ``use_cache=False``, which refreshes entries).
        """
        points = list(plan)
        total = sum(point.repetitions for point in points)
        results: List[Optional[List[RunResult]]] = [None] * len(points)
        completed = 0

        for index, point in enumerate(points):
            cached = (self.cache.load(point)
                      if self.cache is not None and self.use_cache else None)
            if cached is not None:
                results[index] = cached
                completed += point.repetitions
                if self.progress is not None:
                    self.progress(completed, total, point)
                if on_result is not None:
                    on_result(index, point, cached)

        pending = [index for index in range(len(points))
                   if results[index] is None]
        jobs = [(index, repetition) for index in pending
                for repetition in range(points[index].repetitions)]

        def finish_point(index: int, repetition_results: List[RunResult]) -> None:
            results[index] = repetition_results
            if self.cache is not None:
                self.cache.store(points[index], repetition_results)
            if on_result is not None:
                on_result(index, points[index], repetition_results)

        if self.jobs > 1 and len(jobs) > 1:
            collected: Dict[int, List[RunResult]] = {index: []
                                                     for index in pending}
            with multiprocessing.Pool(min(self.jobs, len(jobs))) as pool:
                payloads = [(points[index], repetition)
                            for index, repetition in jobs]
                for (index, _), result in zip(
                        jobs, pool.imap(_run_job, payloads, chunksize=1)):
                    collected[index].append(result)
                    completed += 1
                    if self.progress is not None:
                        self.progress(completed, total, points[index])
                    if len(collected[index]) == points[index].repetitions:
                        finish_point(index, collected[index])
        else:
            for index in pending:
                point = points[index]
                repetition_results = []
                for repetition in range(point.repetitions):
                    repetition_results.append(run_repetition(point, repetition))
                    completed += 1
                    if self.progress is not None:
                        self.progress(completed, total, point)
                finish_point(index, repetition_results)

        return cast(List[List[RunResult]], results)

    def run(self, plan: RunPlan,
            on_result: Optional[ResultCallback] = None) -> List[RunResult]:
        """Run a single-repetition plan; returns one result per point.

        The convenience shape every grid consumer uses (figures, ablations,
        scenario comparisons).  Raises if any point declares repetitions.
        """
        for point in plan:
            if point.repetitions != 1:
                raise ValueError(
                    "Executor.run() requires repetitions == 1 for every "
                    f"point (got {point.repetitions}); use execute()")
        return [group[0] for group in self.execute(plan, on_result)]
