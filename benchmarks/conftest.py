"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an ablation)
and

* stores the rendered table under ``benchmarks/results/<experiment>.md``,
* attaches the table text and headline numbers to ``benchmark.extra_info`` so
  they appear in ``pytest-benchmark``'s JSON output,
* asserts the qualitative shape reported by the paper.

Scale selection: set ``REPRO_BENCH_SCALE=paper`` to run the full Table 1
configuration (2,000–10,000 peers, 3 simulated hours — several minutes of wall
clock); the default ``quick`` profile preserves the shapes and finishes in
seconds per figure.

Execution: every grid runs through the unified execution layer
(:mod:`repro.execution`).  ``REPRO_BENCH_JOBS=N`` fans the sweeps out over a
process pool (bit-identical results) and ``REPRO_BENCH_CACHE_DIR=...`` caches
executed points on disk.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The sweep scale: ``quick`` (default) or ``paper`` via REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("tiny", "quick", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be tiny/quick/paper, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Master seed shared by every benchmark run."""
    return int(os.environ.get("REPRO_BENCH_SEED", "2007"))


@pytest.fixture(scope="session")
def bench_overlays() -> tuple:
    """The overlays the scale-up benchmarks sweep (Figures 7 and 8).

    Defaults to a Chord series plus a Kademlia series; set
    ``REPRO_BENCH_OVERLAYS=chord,can,kademlia`` (any comma-separated subset of
    the overlays in ``repro.dht.registry.OVERLAYS``) to change the sweep.
    """
    from repro.dht.registry import OVERLAYS

    raw = os.environ.get("REPRO_BENCH_OVERLAYS", "chord,kademlia")
    overlays = tuple(name.strip().lower() for name in raw.split(",") if name.strip())
    unknown = [name for name in overlays if name not in OVERLAYS]
    if not overlays or unknown:
        raise ValueError(f"REPRO_BENCH_OVERLAYS must name overlays "
                         f"{sorted(OVERLAYS)}, got {raw!r}")
    return overlays


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    """Worker processes per sweep: ``REPRO_BENCH_JOBS`` (default: serial)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    if jobs < 1:
        raise ValueError(f"REPRO_BENCH_JOBS must be >= 1, got {jobs}")
    return jobs


@pytest.fixture(scope="session")
def bench_executor(bench_jobs, tmp_path_factory):
    """The shared :class:`repro.execution.Executor` driving every bench grid.

    Its run cache serves a point shared by several benches (the Figure 7/8
    and 9/10 sweeps, the Table 1 base point) from the first bench that ran
    it.  The cache lives in a session temporary directory unless
    ``REPRO_BENCH_CACHE_DIR`` names one that persists across sessions.
    """
    from repro.execution import Executor

    cache_dir = (os.environ.get("REPRO_BENCH_CACHE_DIR")
                 or tmp_path_factory.mktemp("run-cache"))
    return Executor(bench_jobs, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Save a rendered experiment table and return its text."""

    def _record(table, benchmark=None):
        path = results_dir / f"{table.experiment_id}.md"
        path.write_text(table.to_markdown() + "\n", encoding="utf-8")
        text = table.to_text()
        if benchmark is not None:
            # First table keeps the historical keys; every table (e.g. one
            # per overlay series) additionally lands under its own id so all
            # series survive into pytest-benchmark's JSON output.
            benchmark.extra_info.setdefault("experiment", table.experiment_id)
            benchmark.extra_info.setdefault("table", text)
            benchmark.extra_info[f"table:{table.experiment_id}"] = text
        print()
        print(text)
        return text

    return _record


@pytest.fixture
def record_cost_json(results_dir):
    """Write (and check) a figure bench's cost artifact: messages & bytes per op.

    The artifact ``<experiment>-cost.json`` carries, per algorithm series,
    both the messages-per-query and the bytes-per-query sweep values.  When a
    committed ``<experiment>-cost-baseline.json`` with matching meta (scale,
    seed) exists, the fresh values are compared against it — the sweeps are
    deterministic for a fixed seed, so any drift is a real behaviour change.
    Baselines recorded before the bytes-per-op accounting simply lack the
    ``bytes`` arrays; they still load, and only the metrics they carry are
    compared.
    """

    def _record(experiment_id, messages_table, bytes_table, *, scale, seed,
                benchmark=None):
        payload = {
            "harness": "bench_figures",
            "experiment": experiment_id,
            "meta": {"scale": scale, "seed": seed},
            "x_label": messages_table.x_label,
            "x_values": list(messages_table.x_values()),
            "series": {label: {"messages": list(messages_table.series_values(label)),
                               "bytes": list(bytes_table.series_values(label))}
                       for label in messages_table.series},
        }
        path = results_dir / f"{experiment_id}-cost.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        baseline_path = results_dir / f"{experiment_id}-cost-baseline.json"
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            if baseline.get("meta") == payload["meta"]:
                assert baseline["x_values"] == payload["x_values"], experiment_id
                for label, series in baseline["series"].items():
                    for metric_name, values in series.items():
                        fresh = payload["series"][label].get(metric_name)
                        if fresh is not None:
                            assert values == pytest.approx(fresh), \
                                (experiment_id, label, metric_name)
        if benchmark is not None:
            benchmark.extra_info[f"cost:{experiment_id}"] = str(path.name)
        return path

    return _record

