"""Executor benchmark — serial vs parallel wall-clock on a Figure-7-style grid.

Builds the ``figure-7`` experiment's peer-count × algorithm grid (≥ 12
points by default) as one named :class:`repro.execution.RunPlan`, with the
peer counts, duration, queries and keys the flags set, executes it twice —
once serially, once on a ``multiprocessing`` pool (``--jobs``, default 4) —
verifies the two executions are **bit-identical** (the execution layer's
parity guarantee), and records both wall-clock times plus the speedup as a
JSON artifact named after the plan (``<plan>-<hash12>.json``), alongside the
other benchmark results.

Usage::

    PYTHONPATH=src python benchmarks/bench_executor.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_executor.py --jobs 4 \
        --min-speedup 2.0 --output bench_executor_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.execution import Executor, RunPlan, plan_artifact_path
from repro.experiments.figures import EXPERIMENTS, SCALE_PROFILES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Peer counts of the default grid; with the three algorithms of the paper
#: this yields 4 × 3 = 12 independent points (the Figure 7 shape).  The
#: per-point work is sized so pool overhead amortises: on a multi-core
#: machine ``--jobs 4`` lands well above 2x (a single-core container can
#: only record ~1x — wall-clock ratios are machine-dependent).
DEFAULT_PEER_COUNTS = (400, 600, 800, 1000)


def build_plan(peer_counts, *, seed: int, duration_s: float,
               num_queries: int, num_keys: int) -> RunPlan:
    """The ``figure-7`` grid (peers × algorithms) over a resized quick profile."""
    profile = dict(SCALE_PROFILES["quick"], peer_counts=tuple(peer_counts),
                   duration_s=duration_s, num_queries=num_queries, num_keys=num_keys)
    points = EXPERIMENTS["figure-7"].points(profile, seed=seed, protocol="chord")
    return RunPlan(name="bench-executor-fig7-grid", points=list(points.values()))


def timed_run(plan: RunPlan, jobs: int):
    """Execute ``plan`` with ``jobs`` workers; returns (seconds, results)."""
    executor = Executor(jobs)
    started = time.perf_counter()
    results = executor.run(plan)
    return time.perf_counter() - started, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool size of the parallel execution (default 4)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--peers", type=int, nargs="+",
                        default=list(DEFAULT_PEER_COUNTS),
                        help="peer counts of the grid (× the 3 algorithms)")
    parser.add_argument("--duration", type=float, default=1800.0,
                        help="simulated seconds per run")
    parser.add_argument("--queries", type=int, default=30,
                        help="measured queries per run")
    parser.add_argument("--keys", type=int, default=20,
                        help="data items per run")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="JSON report path (default: "
                             "benchmarks/results/<plan>-<hash12>.json)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the parallel speedup falls "
                             "below this factor (CI gate)")
    arguments = parser.parse_args(argv)

    plan = build_plan(arguments.peers, seed=arguments.seed,
                      duration_s=arguments.duration,
                      num_queries=arguments.queries, num_keys=arguments.keys)
    print(f"plan {plan.name} ({plan.plan_hash[:12]}): {len(plan)} points, "
          f"jobs={arguments.jobs}")

    serial_s, serial_results = timed_run(plan, jobs=1)
    print(f"serial   : {serial_s:.2f} s")
    parallel_s, parallel_results = timed_run(plan, jobs=arguments.jobs)
    print(f"parallel : {parallel_s:.2f} s")

    # Parity: the pool must reproduce the serial run bit-for-bit.
    mismatches = [
        point.label for point, serial, parallel
        in zip(plan, serial_results, parallel_results)
        if json.dumps(serial.to_dict(), sort_keys=True)
        != json.dumps(parallel.to_dict(), sort_keys=True)]
    if mismatches:
        print(f"PARITY FAILURE at points: {', '.join(mismatches)}")
        return 1

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"speedup  : {speedup:.2f}x (parity verified on {len(plan)} points)")

    report = {
        "plan": plan.manifest(),
        "jobs": arguments.jobs,
        "cpu_count": os.cpu_count(),
        "serial_wall_clock_s": serial_s,
        "parallel_wall_clock_s": parallel_s,
        "speedup": speedup,
        "parity": True,
        "points": [{"label": point.label,
                    "avg_response_time_s": result.avg_response_time_s,
                    "avg_messages": result.avg_messages}
                   for point, result in zip(plan, serial_results)],
    }
    output = arguments.output
    if output is None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        output = plan_artifact_path(RESULTS_DIR, plan)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"report   : {output}")

    if arguments.min_speedup is not None and speedup < arguments.min_speedup:
        # A single-core machine cannot beat parity no matter how healthy the
        # pool is — the gate degrades to the parity check already done above.
        if os.cpu_count() == 1:
            print(f"NOTE: single CPU detected; relaxing the "
                  f"{arguments.min_speedup:.2f}x speedup gate to the "
                  "parity-only check")
            return 0
        print(f"FAIL: speedup {speedup:.2f}x below the required "
              f"{arguments.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
