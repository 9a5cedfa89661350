"""Load-generation harness: latency percentiles and throughput, per backend.

Where the simulator reports message counts and *simulated* response times,
the load generator measures what a serving system is judged on: wall-clock
**latency percentiles** (p50/p95/p99) and **throughput** under a configured
arrival process.  It reuses the scenario engine's arrival models
(:mod:`repro.simulation.scenarios.arrivals` — ``uniform``, ``poisson``,
``flash-crowd``, ``diurnal``) to pace an open-loop request schedule, drives
any registered backend (:mod:`repro.net.backends` — the in-process simulator
or a live ``repro serve`` node over TCP/UDS) through the ordinary
``Session`` operations, and writes a spec-named JSON artifact next to the
other bench results (``loadgen-<arrival>-<backend>-<hash12>.json``), the
same naming convention the execution layer uses for plan artifacts.

The workload is deterministic given the spec's seed: the op mix (reads vs
inserts, single vs batched), the key choices and the arrival times are all
drawn from one seeded RNG, so two backends given the same spec execute the
same operation sequence — which is how the latency comparison stays
apples-to-apples.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

# reprolint: allow[REP005] reason=the harness replays the simulation's arrival models against the real service so sim and tcp runs share workloads (tests/net/test_loadgen.py)
from repro.simulation.scenarios.arrivals import ARRIVAL_MODELS, build_arrivals

__all__ = ["LoadReport", "LoadSpec", "artifact_path", "percentile",
           "run_load", "summarize_latencies", "write_report"]

#: Default results directory (the bench artifacts live here too).
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass
class LoadSpec:
    """One load-generation run, fully described (and content-hashable).

    ``duration_s`` is the *wall-clock* pacing window the arrival model
    stretches over; ``ops`` the target operation count (models with random
    counts, e.g. ``poisson``, treat it as the expectation).  ``batch_every``
    issues every Nth operation as a small batched call (``insert_many`` /
    ``retrieve_many``) so the harness exercises the batched wire path too;
    ``0`` disables batching.
    """

    ops: int = 200
    duration_s: float = 2.0
    arrival: Dict[str, Any] = field(default_factory=lambda: {"model": "poisson"})
    read_fraction: float = 0.8
    keys: int = 16
    batch_every: int = 10
    batch_size: int = 4
    consistency: str = "current"
    seed: int = 2007

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.keys < 1:
            raise ValueError("keys must be >= 1")
        if self.batch_every < 0 or self.batch_size < 1:
            raise ValueError("batch_every must be >= 0 and batch_size >= 1")
        model = self.arrival.get("model", "uniform")
        if model not in ARRIVAL_MODELS:
            raise ValueError(f"unknown arrival model {model!r}; known models: "
                             f"{', '.join(sorted(ARRIVAL_MODELS))}")

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready dict (embedded in the report artifact)."""
        return {"ops": self.ops, "duration_s": self.duration_s,
                "arrival": dict(self.arrival),
                "read_fraction": self.read_fraction, "keys": self.keys,
                "batch_every": self.batch_every, "batch_size": self.batch_size,
                "consistency": self.consistency, "seed": self.seed}

    @property
    def spec_hash(self) -> str:
        """Stable BLAKE2s content hash of the spec (names the artifact)."""
        body = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.blake2s(body).hexdigest()

    @property
    def arrival_model(self) -> str:
        """The arrival model name (used in the artifact file name)."""
        return self.arrival.get("model", "uniform")


@dataclass
class LoadReport:
    """The measured outcome of one load run."""

    spec: LoadSpec
    backend: str
    operations: int
    requests: int
    errors: int
    elapsed_s: float
    latencies_ms: List[float]
    transport: Optional[Dict[str, Any]] = None
    #: Report of a trailing delta anti-entropy round (``sync_replicas``),
    #: attached by the CLI's ``--sync-round``; ``None`` when no round ran.
    sync: Optional[Dict[str, Any]] = None

    @property
    def throughput_ops_per_s(self) -> float:
        """Completed operations per wall-clock second."""
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON artifact payload: spec, throughput and percentiles."""
        payload = {"harness": "loadgen", "spec": self.spec.to_dict(),
                   "spec_hash": self.spec.spec_hash, "backend": self.backend,
                   "operations": self.operations, "requests": self.requests,
                   "errors": self.errors, "elapsed_s": self.elapsed_s,
                   "throughput_ops_per_s": self.throughput_ops_per_s,
                   "latency_ms": summarize_latencies(self.latencies_ms),
                   "transport": self.transport}
        if self.sync is not None:
            payload["sync"] = self.sync
        return payload


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    position = fraction * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


def summarize_latencies(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 plus mean/min/max of a latency sample, in milliseconds."""
    if not latencies_ms:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                "mean": 0.0, "min": 0.0, "max": 0.0}
    ordered = sorted(latencies_ms)
    return {"p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
            "mean": sum(ordered) / len(ordered),
            "min": ordered[0], "max": ordered[-1]}


def _build_schedule(spec: LoadSpec,
                    rng: random.Random) -> List[Tuple[str, Any]]:
    """The deterministic operation list: (op, payload) per arrival slot."""
    operations: List[Tuple[str, Any]] = []
    for index in range(spec.ops):
        batched = (spec.batch_every > 0
                   and index % spec.batch_every == spec.batch_every - 1)
        read = rng.random() < spec.read_fraction
        if batched:
            keys = [f"k{rng.randrange(spec.keys)}" for _ in range(spec.batch_size)]
            if read:
                operations.append(("retrieve_many", keys))
            else:
                operations.append(("insert_many",
                                   [(key, {"op": index, "key": key})
                                    for key in keys]))
        else:
            key = f"k{rng.randrange(spec.keys)}"
            if read:
                operations.append(("retrieve", key))
            else:
                operations.append(("insert", (key, {"op": index, "key": key})))
    return operations


def run_load(cluster: Any, spec: LoadSpec, *, backend: str = "sim",
             paced: bool = True) -> LoadReport:
    """Run ``spec`` against ``cluster`` (any backend) and measure latencies.

    ``paced=True`` (the default) replays the arrival model's schedule
    open-loop in wall-clock time: each request is issued at its scheduled
    offset (or immediately, when the previous one overran — the standard
    open-loop catch-up).  ``paced=False`` issues back-to-back, turning the
    harness into a closed-loop throughput probe.

    Returns a :class:`LoadReport`; per-operation failures (transport
    timeouts that exhausted their retries) are counted in ``errors`` rather
    than aborting the run.
    """
    from repro.net.client import TransportError

    rng = random.Random(spec.seed)
    arrival_times = sorted(build_arrivals(spec.arrival).times(spec.ops,
                                                              spec.duration_s, rng))
    operations = _build_schedule(spec, rng)[:len(arrival_times)]

    client = getattr(cluster, "client", None)
    counters_before = client.counters.as_dict() if client is not None else {}

    latencies_ms: List[float] = []
    errors = 0
    completed = 0
    with cluster.session(consistency=spec.consistency) as session:
        # reprolint: allow[REP001] reason=measuring wall-clock latency is this harness's purpose; determinism of the measured stack is pinned by tests/net/test_loadgen.py
        started = time.perf_counter()
        for offset, (op, payload) in zip(arrival_times, operations):
            if paced:
                # reprolint: allow[REP001] reason=open-loop pacing compares against real elapsed time by design (tests/net/test_loadgen.py)
                delay = offset - (time.perf_counter() - started)
                if delay > 0:
                    # reprolint: allow[REP004] reason=the load generator is a synchronous client-side pacer, not event-loop code (tests/net/test_loadgen.py)
                    time.sleep(delay)
            # reprolint: allow[REP001] reason=per-operation latency timestamping is the measurement itself (tests/net/test_loadgen.py)
            issue = time.perf_counter()
            try:
                if op == "retrieve":
                    session.retrieve(payload)
                elif op == "insert":
                    session.insert(payload[0], payload[1])
                elif op == "retrieve_many":
                    session.retrieve_many(payload)
                else:
                    session.insert_many(payload)
            except TransportError:
                errors += 1
                continue
            # reprolint: allow[REP001] reason=per-operation latency timestamping is the measurement itself (tests/net/test_loadgen.py)
            latencies_ms.append((time.perf_counter() - issue) * 1000.0)
            completed += 1
        # reprolint: allow[REP001] reason=total wall-clock elapsed feeds the throughput figure in LoadReport (tests/net/test_loadgen.py)
        elapsed = time.perf_counter() - started

    transport = None
    if client is not None:
        # Per-run deltas, so back-to-back runs on one connection do not bleed
        # into each other's byte accounting.
        transport = {name: value - counters_before.get(name, 0)
                     for name, value in client.counters.as_dict().items()}
        if completed > 0:
            transport["bytes_per_op"] = (
                (transport["bytes_sent"] + transport["bytes_received"])
                / completed)
    return LoadReport(spec=spec, backend=backend, operations=completed,
                      requests=len(operations), errors=errors,
                      elapsed_s=elapsed, latencies_ms=latencies_ms,
                      transport=transport)


def artifact_path(results_dir: pathlib.Path, spec: LoadSpec,
                  backend: str) -> pathlib.Path:
    """``loadgen-<arrival>-<backend>-<hash12>.json`` under ``results_dir``.

    Mirrors the execution layer's plan-artifact naming: the file name is a
    function of the spec, so re-running the same spec overwrites the same
    artifact and a changed spec produces a distinguishable new one.
    """
    return (pathlib.Path(results_dir)
            / f"loadgen-{spec.arrival_model}-{backend}-{spec.spec_hash[:12]}.json")


def write_report(report: LoadReport,
                 output: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Write the report JSON (default: the spec-named path under results)."""
    if output is None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        output = artifact_path(RESULTS_DIR, report.spec, report.backend)
    output = pathlib.Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
    return output
