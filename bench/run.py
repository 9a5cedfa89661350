"""One command, one schema: the repo's benchmark.

::

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>
                         [--scale full|smoke] [--output FILE] [--spans FILE]

(``PYTHONPATH=src python -m bench.run ...`` is the same thing.)  Prints every
metric by name and unit, checks every result against an oracle, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``bench/README.md`` for what each metric means and how a
timing is taken.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/ itself: drop it (its module names
# must not shadow anything) and make ``bench`` and ``repro`` importable.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != _ROOT / "bench"]
for _entry in (_ROOT, _ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

try:
    import repro  # noqa: F401,E402 - fail before any work when src/ is missing
except ImportError:
    sys.exit(f"bench: cannot import 'repro' from {_ROOT / 'src'}")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

from bench import layers, probes  # noqa: E402
from bench.backends import make_backend, peak_rss_kb, pin_to_one_cpu  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.spans import Patches, Recorder, analyse, jsonable  # noqa: E402
from bench.workloads import (  # noqa: E402
    SCALES,
    SEGMENTS,
    WARMUP_CALLS,
    WORKLOADS,
    Churn,
    Execution,
    Op,
    Phase,
    Scale,
    Verifier,
    Workload,
    call_count,
    digests_agree,
    key_names,
    op_stream,
    run_phase,
)
from bench.yardstick import CAL_REF, timed  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The traced run repeats the first fifth of the measured calls.
TRACED_SHARE = 5
#: Calls of a tcp workload replayed in-process to compare digests.
MIRROR_CALLS = WARMUP_CALLS + 120


def set_up(workload: Workload, scale: Scale, repeats: int, *,
           trace: bool = False) -> Tuple[Any, List[float], List[float]]:
    """Open the backend ``repeats`` times; keep the last one open.

    Returns ``(backend, norm seconds of each set-up, raw seconds of each)``.
    """
    norm: List[float] = []
    raw: List[float] = []
    backend = None
    for _ in range(repeats):
        if backend is not None:
            backend.close()
            backend = None
            gc.collect()
        backend = make_backend(workload, scale, trace=trace)
        _none, raw_s, norm_s = timed(backend.open)
        raw.append(raw_s)
        norm.append(norm_s)
    return backend, norm, raw


def execute(backend: Any, workload: Workload, keys: Sequence[str],
            ops: Sequence[Op], calls: int, segments: int, *,
            recorder: Optional[Recorder] = None,
            sync_after: bool = False) -> Execution:
    """Warm up, run the measured phase, close the backend."""
    cluster = backend.cluster
    verifier = Verifier(len(keys))
    churn = Churn(cluster.network) if workload.churn_every else None
    counters_before = backend.counters()
    try:
        with cluster.session() as session:
            run_phase(session, keys, ops[:WARMUP_CALLS], verifier, first_index=0,
                      segments=1, churn=churn, churn_every=workload.churn_every)
            verifier.begin_measurement()
            transport_before = backend.transport()
            if recorder is not None:
                recorder.start()
            phase = run_phase(session, keys, ops[WARMUP_CALLS:WARMUP_CALLS + calls],
                              verifier, first_index=WARMUP_CALLS,
                              segments=segments, churn=churn,
                              churn_every=workload.churn_every, recorder=recorder)
            if recorder is not None:
                recorder.stop()
        transport = {name: value - transport_before[name]
                     for name, value in backend.transport().items()}
        sync_ms = sync_ratio = 0.0
        if sync_after:
            synced, _raw, norm_s = timed(cluster.sync_replicas)
            sync_ms, sync_ratio = norm_s * 1e3, synced.transfer_ratio
    finally:
        report = backend.close()
    return Execution(phase=phase, verifier=verifier, calls=calls,
                     churn_events=churn.events if churn else 0,
                     request_offset=transport_before.get("requests", 0),
                     transport=transport, counters_before=counters_before,
                     report=report, sync_ms=sync_ms, sync_transfer_ratio=sync_ratio)


def end_to_end(execution: Execution, setup_norm_s: Sequence[float],
               rss_kb: int) -> Dict[str, float]:
    """The nine end-to-end metrics of one untraced execution."""
    phase, verifier = execution.phase, execution.verifier
    if execution.transport:
        wire_bytes = (execution.transport["bytes_sent"]
                      + execution.transport["bytes_received"])
    else:
        wire_bytes = verifier.trace_bytes
    return {
        "setup_s": statistics.median(setup_norm_s),
        "norm_key_ops_per_s": statistics.median(phase.segment_throughputs()),
        "retrieve_p50_norm_ms": statistics.median(
            phase.segment_medians_ms(phase.retrieve_ns)),
        "insert_p50_norm_ms": statistics.median(
            phase.segment_medians_ms(phase.insert_ns)),
        "messages_per_key_op": verifier.messages / verifier.key_ops,
        "wire_bytes_per_key_op": wire_bytes / verifier.key_ops,
        "current_rate": verifier.current_keys / verifier.retrieved_keys,
        "ok_op_share": (verifier.attempted - verifier.failed) / verifier.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def raw_figures(execution: Execution, setup_raw_s: Sequence[float]) -> Dict[str, float]:
    """Wall-clock figures, for information only: never gated, never compared."""
    phase = execution.phase
    retrieve = [value for segment in phase.retrieve_ns for value in segment]
    insert = [value for segment in phase.insert_ns for value in segment]
    busy_s = phase.busy_raw_ns() / 1e9
    return {"raw_setup_s": statistics.median(setup_raw_s),
            "raw_key_ops_per_s": sum(phase.key_ops) / busy_s,
            "raw_retrieve_p50_ms": statistics.median(retrieve) / 1e6,
            "raw_insert_p50_ms": statistics.median(insert) / 1e6,
            "raw_busy_s": busy_s,
            "raw_phase_wall_s": phase.wall_s,
            "cal_rounds_per_s": statistics.median(phase.rates),
            "cal_ref_rounds_per_s": CAL_REF}


def mirror_matches(workload: Workload, scale: Scale, keys: Sequence[str],
                   ops: Sequence[Op], checkpoints: Dict[int, str]) -> bool:
    """Replay the head of a tcp workload in-process; the digests must agree."""
    sim = dataclasses.replace(workload, backend="sim")
    backend, _norm, _raw = set_up(sim, scale, 1)
    calls = min(MIRROR_CALLS, len(ops)) - WARMUP_CALLS
    mirror = execute(backend, sim, keys, ops, calls, 1)
    return digests_agree(checkpoints, mirror.verifier.checkpoints)[1]


def traced_run(workload: Workload, scale: Scale, keys: Sequence[str],
               ops: Sequence[Op], calls: int) -> Tuple[Execution, Dict[str, Any]]:
    """Repeat the first ``calls`` measured calls with the wrappers installed."""
    recorder = Recorder()
    patches = Patches()
    backend, _norm, _raw = set_up(workload, scale, 1, trace=True)
    overlay_class = None
    if workload.backend == "sim":
        overlay_class = type(backend.cluster.network.protocol)
    layers.install(patches, recorder, overlay_class)
    try:
        execution = execute(backend, workload, keys, ops, calls,
                            SEGMENTS // TRACED_SHARE, recorder=recorder,
                            sync_after=workload.churn_every > 0)
    finally:
        patches.restore()
    return execution, recorder.dump()


def run_workload(workload: Workload, scale: Scale, seed: int, seconds: int,
                 trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the full result document."""
    calls = call_count(workload, scale, seconds)
    keys = key_names(scale.keys)
    ops = op_stream(workload, seed, WARMUP_CALLS + calls, scale.keys)
    backend, setup_norm, setup_raw = set_up(workload, scale, SETUP_REPEATS)
    untraced = execute(backend, workload, keys, ops, calls, SEGMENTS)
    verifier = untraced.verifier
    rss_kb = peak_rss_kb() + untraced.report["peak_rss_kb"]
    problems: List[str] = []
    if verifier.first_failure is not None:
        problems.append(verifier.first_failure)
    if workload.backend == "tcp" and not mirror_matches(
            workload, scale, keys, ops, verifier.checkpoints):
        problems.append("tcp and in-process digests differ over the common prefix")
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "calls": calls, "segments": SEGMENTS,
        "attempted": verifier.attempted, "failed": verifier.failed,
        "digest": verifier.checkpoints[WARMUP_CALLS + calls],
        "checkpoints": verifier.checkpoints,
        "end_to_end": end_to_end(untraced, setup_norm, rss_kb),
        "raw": raw_figures(untraced, setup_raw),
    }
    if trace:
        traced, client_spans = traced_run(workload, scale, keys, ops,
                                          calls // TRACED_SHARE)
        if not digests_agree(verifier.checkpoints,
                             traced.verifier.checkpoints)[1]:
            problems.append("traced and untraced digests differ: "
                            "the wrappers changed behaviour")
        totals = analyse(client_spans, traced.report["spans"],
                         request_offset=traced.request_offset,
                         operations=traced.calls)
        measured = {"env.echo_rtt_us": probes.echo_rtt_us()
                    if workload.backend == "tcp" else 0.0}
        measured.update(probes.overlay_probes(scale.peers))
        measured.update(probes.hashing_probes())
        result["per_layer"] = layers.per_layer_metrics(
            totals, traced, untraced.phase, measured)
        result["spans"] = {"client": client_spans,
                           "server": traced.report["spans"],
                           "request_offset": traced.request_offset}
    result["problems"] = problems
    result["correct"] = not problems
    return result


def _print_table(result: Dict[str, Any]) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  calls={result['calls']}"
          f"  segments={result['segments']}  digest={result['digest'][:12]}")
    tables = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)]
    for section, metrics in tables:
        for metric in metrics:
            if section in result:
                print(f"{result['workload']:<10} {metric.name:<40} "
                      f"{result[section][metric.name]:>16.6f} {metric.unit}")
    for name, value in result["raw"].items():
        print(f"{result['workload']:<10} {name:<40} {value:>16.6f} (info)")
    for problem in result["problems"]:
        print(f"{result['workload']:<10} PROBLEM: {problem}")


def _final_line(results: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    section, metrics = (("per_layer", PER_LAYER) if trace
                        else ("end_to_end", END_TO_END))
    prefix = len(results) > 1
    emitted = {}
    for result in results:
        for metric in metrics:
            name = f"{result['workload']}.{metric.name}" if prefix else metric.name
            emitted[name] = {"value": result[section][metric.name],
                             "unit": metric.unit}
    return {"correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": emitted}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("::")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12,
                        help="sizes the fixed op count (calls_per_second * seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--output", help="write the full result document here")
    parser.add_argument("--spans", help="with --trace: write the span dump here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pin_to_one_cpu()
    results = []
    spans = {}
    for name in names:
        result = run_workload(WORKLOADS[name], SCALES[args.scale], args.seed,
                              args.seconds, bool(args.trace))
        dump = result.pop("spans", None)
        if dump is not None and args.spans:
            spans[name] = {**dump, "client": jsonable(dump["client"])}
        results.append(result)
        _print_table(result)
    by_name = {result["workload"]: result for result in results}
    if {"sim_point", "tcp_point"} <= set(by_name):
        shared, equal = digests_agree(by_name["sim_point"]["checkpoints"],
                                      by_name["tcp_point"]["checkpoints"])
        print(f"sim_point/tcp_point digest over {shared} calls: "
              f"{'equal' if equal else 'DIFFERENT'}")
        if not equal:
            by_name["tcp_point"]["correct"] = False
            by_name["tcp_point"]["problems"].append(
                "sim_point and tcp_point digests differ")
    if args.spans:
        Path(args.spans).write_text(json.dumps(spans))
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"scale": args.scale, "cal_ref_rounds_per_s": CAL_REF,
             "workloads": results}, indent=1))
    print(json.dumps(_final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
