"""The executor: run a :class:`~repro.execution.plan.RunPlan`, serially or in parallel.

One :class:`Executor` replaces the grid loops that used to live separately in
``experiments/runner.py``, ``experiments/figures.py`` and the ``repro
scenario compare`` CLI path:

* ``jobs=1`` (default) runs the points in plan order in-process;
* ``jobs=N`` fans the points out over a ``multiprocessing`` pool.  Every run
  is self-contained — the harness seeds all of its RNG streams from the
  point's parameters — so parallel execution is **bit-identical** to serial
  execution (the repo's standing RNG-compatibility guarantee, pinned by
  ``tests/execution``);
* with a ``cache_dir``, finished points land in a
  :class:`~repro.execution.cache.RunCache` keyed by the point content hash
  and are skipped on re-execution (``use_cache=False`` forces a re-run and
  refreshes the entry);
* ``progress`` reports every completion as it happens.

``jobs=None`` resolves through the ``REPRO_EXECUTOR_JOBS`` environment
variable (default 1), which is how CI pushes the slow integration grids
through a pool without every call site growing a flag.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
from typing import Callable, List, Optional, Union, cast

from repro.execution.cache import RunCache
from repro.execution.plan import RunPlan, RunPoint
from repro.simulation.results import RunResult

__all__ = ["Executor", "JOBS_ENV", "resolve_jobs", "run_point"]

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_EXECUTOR_JOBS"

#: Optional callback ``progress(completed_points, total_points, point)`` after
#: every finished point (cached points first, then executed points in plan
#: order).
ProgressCallback = Callable[[int, int, RunPoint], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit ``jobs``, or the ``REPRO_EXECUTOR_JOBS`` default (1)."""
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV, "1") or "1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def run_point(point: RunPoint) -> RunResult:
    """Execute one point (the pool's unit of work).

    Builds a fresh harness from the point's effective parameters and a fresh
    :class:`~repro.simulation.scenarios.Scenario` — no state is shared with
    the parent process or other runs, which is what makes parallel execution
    reproduce serial results bit-for-bit.
    """
    # Imported here so a forked/spawned worker resolves everything itself.
    from repro.simulation.harness import SimulationHarness

    return SimulationHarness(point.parameters, scenario=point.scenario).run()


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

    def run(self, plan: RunPlan) -> List[RunResult]:
        """Run ``plan``; returns one result per point, in plan order.

        Cached points are served from the run cache without invoking the
        harness; freshly executed points are stored back when a cache is
        configured (also with ``use_cache=False``, which refreshes entries).
        """
        points = list(plan)
        results: List[Optional[RunResult]] = [None] * len(points)
        completed = 0

        def finish(index: int, result: RunResult) -> None:
            nonlocal completed
            results[index] = result
            completed += 1
            if self.progress is not None:
                self.progress(completed, len(points), points[index])

        if self.cache is not None and self.use_cache:
            for index, point in enumerate(points):
                cached = self.cache.load(point)
                if cached is not None:
                    finish(index, cached)

        pending = [index for index, result in enumerate(results) if result is None]

        def executed(index: int, result: RunResult) -> None:
            if self.cache is not None:
                self.cache.store(points[index], result)
            finish(index, result)

        if self.jobs > 1 and len(pending) > 1:
            with multiprocessing.Pool(min(self.jobs, len(pending))) as pool:
                for index, result in zip(pending, pool.imap(
                        run_point, [points[index] for index in pending], chunksize=1)):
                    executed(index, result)
        else:
            for index in pending:
                executed(index, run_point(points[index]))

        return cast(List[RunResult], results)
