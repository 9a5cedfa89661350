"""Hot-path wall-clock throughput suite (ops/sec per overlay × operation).

Unlike the figure benchmarks (which regenerate the paper's *simulated* cost
tables), this suite measures real wall-clock throughput of the DHT substrate's
hot path: untraced ``put``/``get``/mixed single operations and the batched
``put_many``/``get_many`` entry points, on every registered overlay.  It is
the regression harness for the routing/placement optimisations (memoised
hashing, versioned overlay caches, the trace-free fast path and the
point-indexed stores): results are written as JSON into
``benchmarks/results/`` so CI can archive them and compare runs.

Usage
-----
Measure and write a JSON report::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --peers 1000 --ops 2000 --output benchmarks/results/bench_hotpath.json

Compare a fresh run against a stored baseline and fail (exit 1) on a >2x
ops/sec regression for any (overlay, operation) cell::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --peers 200 --ops 500 \
        --check benchmarks/results/bench_hotpath_smoke_baseline.json \
        --max-regression 2.0

The regression threshold is deliberately loose (wall-clock on shared CI
runners is noisy); it is meant to catch order-of-magnitude slowdowns such as
an accidentally disabled cache, not single-digit percent drift.

Scaling curves
--------------
``--peers`` accepts a comma-separated list (``--peers 1000,10000,100000``);
the first count drives the full per-operation grid (and the regression
check), while *every* count contributes a point to the report's ``scaling``
section: build seconds, build throughput, ``tracemalloc`` peak bytes and
bytes-per-peer for the network build, and mixed-workload ops/sec.  When
``--peers`` is omitted the point list follows ``REPRO_BENCH_SCALE``:
``tiny`` → 200, ``quick`` (default) → 1k and 10k, ``paper`` → 1k, 10k and
100k peers.  ``--budget-seconds`` bounds the wall clock: once the budget is
spent, remaining scaling points are skipped (and named in the report, so a
truncated curve is never mistaken for a complete one).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

from repro.dht.hashing import HashFamily
from repro.dht.network import DHTNetwork

DEFAULT_OVERLAYS = ("chord", "can", "kademlia")
DEFAULT_OPERATIONS = ("put", "get", "mixed", "put_many", "get_many")
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Peer-count schedule per ``REPRO_BENCH_SCALE`` when ``--peers`` is omitted.
SCALE_PEER_COUNTS = {
    "tiny": (200,),
    "quick": (1_000, 10_000),
    "paper": (1_000, 10_000, 100_000),
}

#: Meta keys that must match between a report and the baseline it is checked
#: against — comparing ops/sec across different workload shapes is meaningless.
_CONFIG_KEYS = ("peers", "ops", "keys", "replicas", "bits", "seed",
                "batch_size")


def _calibrate(rounds: int = 30_000) -> float:
    """Machine-speed yardstick: ops/sec of a fixed SHA-1 + big-int workload.

    Deliberately independent of any repo code path (so the optimisations
    under test cannot move it); used by :func:`check_regression` to normalise
    a baseline recorded on different hardware / Python version.
    """
    import hashlib
    prime = (1 << 521) - 1
    accumulator = 0
    start = time.perf_counter()
    for index in range(rounds):
        digest = int.from_bytes(hashlib.sha1(b"cal-%d" % index).digest(), "big")
        accumulator = (accumulator + digest * 31) % prime
    elapsed = time.perf_counter() - start
    assert accumulator >= 0
    return rounds / elapsed


def _build_network(overlay: str, peers: int, seed: int, bits: int) -> DHTNetwork:
    return DHTNetwork.build(peers, protocol=overlay, bits=bits, seed=seed)


def _measure_build_memory(overlay: str, peers: int, seed: int, bits: int) -> int:
    """``tracemalloc`` peak bytes of one network build.

    Runs a *separate* build under tracing so the timed build stays untraced
    (tracemalloc roughly doubles allocation cost and would corrupt the
    build-seconds scaling curve).
    """
    tracemalloc.start()
    try:
        _build_network(overlay, peers, seed, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _workload(ops: int, keys: int, fns) -> List[tuple]:
    """The deterministic (key, hash_fn, payload) schedule shared by all runs."""
    return [(f"key-{index % keys}", fns[index % len(fns)], {"n": index})
            for index in range(ops)]


def _run_operation(network: DHTNetwork, operation: str, schedule,
                   batch_size: int) -> float:
    """Execute ``operation`` over ``schedule`` and return elapsed seconds."""
    if operation == "put":
        start = time.perf_counter()
        for key, fn, payload in schedule:
            network.put(key, fn, payload, version=payload["n"])
        return time.perf_counter() - start
    if operation == "get":
        start = time.perf_counter()
        for key, fn, _payload in schedule:
            network.get(key, fn)
        return time.perf_counter() - start
    if operation == "mixed":
        start = time.perf_counter()
        for index, (key, fn, payload) in enumerate(schedule):
            if index % 2 == 0:
                network.put(key, fn, payload, version=payload["n"])
            else:
                network.get(key, fn)
        return time.perf_counter() - start
    if operation == "put_many":
        batches = [[(key, fn, payload, None, payload["n"])
                    for key, fn, payload in schedule[lo:lo + batch_size]]
                   for lo in range(0, len(schedule), batch_size)]
        start = time.perf_counter()
        for batch in batches:
            network.put_many(batch)
        return time.perf_counter() - start
    if operation == "get_many":
        batches = [[(key, fn) for key, fn, _payload in schedule[lo:lo + batch_size]]
                   for lo in range(0, len(schedule), batch_size)]
        start = time.perf_counter()
        for batch in batches:
            network.get_many(batch)
        return time.perf_counter() - start
    raise ValueError(f"unknown operation {operation!r}")


def run_suite(*, peers: int, ops: int, keys: int, replicas: int, bits: int,
              seed: int, overlays, operations, batch_size: int,
              label: str) -> Dict:
    report: Dict = {
        "meta": {
            "label": label,
            "peers": peers,
            "ops": ops,
            "keys": keys,
            "replicas": replicas,
            "bits": bits,
            "seed": seed,
            "batch_size": batch_size,
            "python": platform.python_version(),
            "calibration_ops_per_sec": _calibrate(),
        },
        "results": {},
    }
    for overlay in overlays:
        family = HashFamily(bits=bits, seed=seed)
        fns = family.sample_many(replicas)
        build_start = time.perf_counter()
        network = _build_network(overlay, peers, seed, bits)
        build_seconds = time.perf_counter() - build_start
        peak_bytes = _measure_build_memory(overlay, peers, seed, bits)
        schedule = _workload(ops, keys, fns)
        cells: Dict[str, Dict] = {
            "build": {"ops": peers, "seconds": build_seconds,
                      "ops_per_sec": (peers / build_seconds if build_seconds
                                      else float("inf")),
                      "tracemalloc_peak_bytes": peak_bytes,
                      "bytes_per_peer": peak_bytes / peers},
        }
        # ``put`` runs first so the retrieval operations find stored data.
        for operation in operations:
            seconds = _run_operation(network, operation, schedule, batch_size)
            cells[operation] = {
                "ops": len(schedule),
                "seconds": seconds,
                "ops_per_sec": len(schedule) / seconds if seconds else float("inf"),
            }
            print(f"{overlay:>9s} {operation:>9s}: "
                  f"{cells[operation]['ops_per_sec']:>12.0f} ops/sec "
                  f"({seconds:.3f}s for {len(schedule)} ops)")
        report["results"][overlay] = cells
    return report


def run_scaling_point(*, peers: int, ops: int, keys: int, replicas: int,
                      bits: int, seed: int, overlays, batch_size: int) -> Dict:
    """One point of the build/memory/mixed-throughput scaling curves.

    Records, per overlay: build seconds and build throughput (untraced),
    ``tracemalloc`` peak bytes and bytes-per-peer of a second traced build,
    and ops/sec of the standard mixed put/get workload.
    """
    point: Dict = {"peers": peers, "overlays": {}}
    for overlay in overlays:
        family = HashFamily(bits=bits, seed=seed)
        fns = family.sample_many(replicas)
        build_start = time.perf_counter()
        network = _build_network(overlay, peers, seed, bits)
        build_seconds = time.perf_counter() - build_start
        peak_bytes = _measure_build_memory(overlay, peers, seed, bits)
        schedule = _workload(ops, keys, fns)
        mixed_seconds = _run_operation(network, "mixed", schedule, batch_size)
        point["overlays"][overlay] = {
            "build_seconds": build_seconds,
            "build_ops_per_sec": (peers / build_seconds if build_seconds
                                  else float("inf")),
            "tracemalloc_peak_bytes": peak_bytes,
            "bytes_per_peer": peak_bytes / peers,
            "mixed_ops": len(schedule),
            "mixed_seconds": mixed_seconds,
            "mixed_ops_per_sec": (len(schedule) / mixed_seconds
                                  if mixed_seconds else float("inf")),
        }
        cell = point["overlays"][overlay]
        print(f"scale {overlay:>9s} @{peers:>7d} peers: "
              f"build {build_seconds:7.2f}s "
              f"({cell['build_ops_per_sec']:>9.0f} joins/sec), "
              f"{cell['bytes_per_peer']:>7.0f} B/peer, "
              f"mixed {cell['mixed_ops_per_sec']:>9.0f} ops/sec")
    return point


def run_scaling_curves(peer_counts, *, budget_seconds: Optional[float] = None,
                       **point_kwargs) -> Dict:
    """Run :func:`run_scaling_point` for each count under a wall-clock budget.

    Returns ``{"points": [...], "skipped_peer_counts": [...]}``.  At least the
    first point always runs; later points are skipped once the budget is
    spent, and the skipped counts are recorded so a truncated curve is
    explicit in the artifact.
    """
    deadline = (time.monotonic() + budget_seconds
                if budget_seconds is not None else None)
    points: List[Dict] = []
    skipped: List[int] = []
    for count in peer_counts:
        if points and deadline is not None and time.monotonic() >= deadline:
            skipped.append(count)
            continue
        points.append(run_scaling_point(peers=count, **point_kwargs))
    if skipped:
        print(f"budget of {budget_seconds:.0f}s spent; skipped scaling "
              f"point(s) at {', '.join(str(c) for c in skipped)} peers",
              file=sys.stderr)
    return {"points": points, "skipped_peer_counts": skipped}


def check_regression(report: Dict, baseline_path: pathlib.Path,
                     max_regression: float) -> int:
    """Compare ``report`` against a stored baseline; return a process exit code.

    The baseline's ops/sec are rescaled by the ratio of the two runs'
    machine-speed calibrations, so a baseline recorded on faster (or slower)
    hardware does not manufacture — or mask — a regression.  The workload
    configuration must match exactly; a mismatch is a usage error, not a
    performance result.
    """
    baseline = json.loads(baseline_path.read_text())
    mismatched = [key for key in _CONFIG_KEYS
                  if report["meta"].get(key) != baseline.get("meta", {}).get(key)]
    if mismatched:
        print(f"configuration mismatch against {baseline_path}; refusing to "
              f"compare ops/sec across different workloads:", file=sys.stderr)
        for key in mismatched:
            print(f"  {key}: baseline {baseline.get('meta', {}).get(key)!r} "
                  f"vs now {report['meta'].get(key)!r}", file=sys.stderr)
        return 2
    base_calibration = baseline.get("meta", {}).get("calibration_ops_per_sec")
    speed_factor = 1.0
    if base_calibration:
        speed_factor = report["meta"]["calibration_ops_per_sec"] / base_calibration
        print(f"machine-speed factor vs baseline: x{speed_factor:.2f} "
              f"(baseline ops/sec rescaled accordingly)")
    failures = []
    for overlay, cells in report["results"].items():
        base_cells = baseline.get("results", {}).get(overlay, {})
        for operation, cell in cells.items():
            base = base_cells.get(operation)
            if base is None or operation == "build":
                continue
            expected = base["ops_per_sec"] * speed_factor
            ratio = expected / cell["ops_per_sec"]
            status = "FAIL" if ratio > max_regression else "ok"
            print(f"check {overlay:>9s} {operation:>9s}: baseline "
                  f"{expected:.0f} vs now {cell['ops_per_sec']:.0f} "
                  f"ops/sec (x{1 / ratio:.2f}) [{status}]")
            if ratio > max_regression:
                failures.append((overlay, operation, ratio))
    if failures:
        print(f"\n{len(failures)} cell(s) regressed by more than "
              f"{max_regression:.1f}x against {baseline_path}:", file=sys.stderr)
        for overlay, operation, ratio in failures:
            print(f"  {overlay}/{operation}: {ratio:.2f}x slower", file=sys.stderr)
        return 1
    print(f"\nno cell regressed by more than {max_regression:.1f}x "
          f"against {baseline_path}")
    return 0


def _resolve_peer_counts(peers_arg: Optional[str]) -> List[int]:
    """``--peers`` as a list of counts, or the REPRO_BENCH_SCALE schedule."""
    if peers_arg:
        counts = [int(value) for value in peers_arg.split(",") if value]
        if not counts or any(count < 1 for count in counts):
            raise ValueError(f"invalid --peers value {peers_arg!r}")
        return counts
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in SCALE_PEER_COUNTS:
        raise ValueError("REPRO_BENCH_SCALE must be "
                         f"{'/'.join(SCALE_PEER_COUNTS)}, got {scale!r}")
    return list(SCALE_PEER_COUNTS[scale])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", default=None,
                        help="peer count, or comma-separated counts for the "
                             "scaling curves (first count drives the full "
                             "per-operation grid); default follows "
                             "REPRO_BENCH_SCALE (tiny/quick/paper)")
    parser.add_argument("--ops", type=int, default=2000,
                        help="operations per (overlay, operation) cell")
    parser.add_argument("--keys", type=int, default=256,
                        help="distinct keys cycled through by the workload")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replication hash functions cycled through")
    parser.add_argument("--bits", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--overlays", default=",".join(DEFAULT_OVERLAYS))
    parser.add_argument("--operations", default=",".join(DEFAULT_OPERATIONS))
    parser.add_argument("--label", default="hotpath")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="wall-clock budget for the scaling curves; "
                             "points past the budget are skipped (and listed "
                             "in the report)")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="where to write the JSON report "
                             "(default benchmarks/results/bench_hotpath.json)")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to compare against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when baseline/now ops/sec exceeds this ratio")
    args = parser.parse_args(argv)

    peer_counts = _resolve_peer_counts(args.peers)
    overlays = [name for name in args.overlays.split(",") if name]

    report = run_suite(
        peers=peer_counts[0], ops=args.ops, keys=args.keys,
        replicas=args.replicas, bits=args.bits, seed=args.seed,
        overlays=overlays,
        operations=[name for name in args.operations.split(",") if name],
        batch_size=args.batch_size, label=args.label)
    report["meta"]["peer_counts"] = peer_counts
    report["scaling"] = run_scaling_curves(
        peer_counts, budget_seconds=args.budget_seconds,
        ops=args.ops, keys=args.keys, replicas=args.replicas, bits=args.bits,
        seed=args.seed, overlays=overlays, batch_size=args.batch_size)

    output = args.output
    if output is None:
        output = RESULTS_DIR / "bench_hotpath.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if args.check is not None:
        return check_regression(report, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
