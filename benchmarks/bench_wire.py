"""Wire-format efficiency suite: measured frame bytes, JSON vs binary.

The wire-efficiency layer claims that the compact binary framing (tagged
struct packing, native result records, one deflate stream per connection)
shrinks bulk transfers by at least 2x against the legacy JSON frames.  This
bench *measures* that claim: it builds deterministic payloads shaped like
the protocol's real traffic (single ops, batched ops, delta-sync entry
lists, and the trace-bearing point replies that dominate a ``tcp_point``
run) with :mod:`repro.net.codec`, records the exact frame size of each under
both formats, and fails when any bulk payload misses the improvement bar.

A binary frame is the next piece of its connection's deflate stream, so its
size depends on the frames before it: the plain rows measure each payload
as the first frame of a fresh stream, and the ``*_mid_stream`` rows the last
request and reply of a seeded ``tcp_point``-like connection, where every
earlier frame is history the stream can refer back to.

Frame sizes are deterministic functions of the payloads and the seeded
sequence (no sampling, no wall-clock), so runs are bit-identical across
machines and a stored baseline can be compared exactly.

Usage
-----
Measure and write a JSON report::

    PYTHONPATH=src python benchmarks/bench_wire.py \
        --output benchmarks/results/bench_wire.json

Compare against the committed baseline (exact frame sizes) and enforce the
bulk-transfer improvement bar::

    PYTHONPATH=src python benchmarks/bench_wire.py \
        --check benchmarks/results/bench_wire_baseline.json \
        --min-improvement 2.0
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import random
import sys
from typing import Dict, Optional, Tuple

from repro.api.cluster import Cluster
from repro.api.results import InsertResult, RetrieveResult
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, OperationTrace
from repro.net import codec

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Payloads below this many JSON bytes are "control" traffic: binary helps but
#: the 2x bulk-transfer bar only applies to the data-carrying shapes.
_BULK_THRESHOLD_BYTES = 512

#: Operations on the seeded connection of the ``*_mid_stream`` rows.
_MID_STREAM_OPS = 20


def _bulk_items(count: int, *, seed: int = 2007) -> list:
    """A deterministic batch of (key, data) pairs shaped like app traffic."""
    return [[f"key-{(seed + index) % 97:03d}",
             {"op": index, "payload": f"value-{index:04d}" * 4,
              "tags": [f"t{index % 7}", f"t{index % 11}"],
              "meta": {"origin": index % 53, "attempt": 1}}]
            for index in range(count)]


def _point_trace(routes: list) -> OperationTrace:
    """A hand-built trace: one lookup per ``(hops, request, reply)`` route.

    Peer ids are a fixed multiplicative sequence over the 32-bit id space
    the served clusters use, so the columns hold realistic bytes (varied
    low-order, zero high-order) without any RNG.
    """
    ids = ((2654435761 * index) % (2 ** 32) for index in itertools.count(1))
    trace = OperationTrace()
    for hops, request, reply in routes:
        path = [next(ids) for _ in range(hops + 1)]
        trace.record_route(path)
        trace.record_request_reply(request, reply, source=path[0],
                                   dest=path[-1])
    return trace


def _point_replies() -> Dict[str, dict]:
    """Single-key replies carrying the mean ``tcp_point`` traces.

    A retrieve there averages 16 messages (the KTS ``last_ts`` route plus one
    replica probe) and an insert 86 (``gen_ts`` plus ten replica writes, here
    with two routing retries, one of them timed out).
    """
    retrieve_trace = _point_trace([
        (6, MessageKind.LAST_TS_REQUEST, MessageKind.LAST_TS_REPLY),
        (6, MessageKind.GET_REQUEST, MessageKind.GET_REPLY)])
    insert_trace = _point_trace(
        [(6, MessageKind.TSR, MessageKind.TSR_REPLY)]
        + [(6 if replica < 6 else 5, MessageKind.PUT_REQUEST,
            MessageKind.PUT_ACK) for replica in range(10)])
    insert_trace.record_route([], retries=2, timeouts=1)
    if (len(retrieve_trace), len(insert_trace)) != (16, 86):
        raise AssertionError("hand-built traces drifted from 16/86 messages")
    stamp = Timestamp(key="key-042", value=17)
    retrieve = RetrieveResult(
        key="key-042", data={"op": 17, "payload": "value-0017" * 4},
        found=True, is_current=True, replicas_inspected=1,
        trace=retrieve_trace, timestamp=stamp, latest_timestamp=stamp,
        service="ums")
    insert = InsertResult(key="key-042", replicas_written=10,
                          replicas_attempted=10, trace=insert_trace,
                          timestamp=stamp, service="ums")
    return {
        "retrieve_reply": {"id": 19, "ok": True, "result": retrieve},
        "insert_reply": {"id": 23, "ok": True, "result": insert},
    }


def _mid_stream(ops: int = _MID_STREAM_OPS, *,
                seed: int = 2007) -> Dict[str, Tuple[dict, int]]:
    """The last request and reply of a seeded connection, each with its
    binary frame size measured mid-stream.

    ``ops`` operations of the ``tcp_point`` mix (80 % retrieves, the last
    one too) over 16 pre-inserted keys, executed on a seeded in-process
    cluster; requests and replies each go through one deflate stream, as
    a client's and a server's connection send them.
    """
    rng = random.Random(seed)
    cluster = Cluster.build(peers=64, replicas=10, seed=seed)
    requests, replies = codec.DeflateStream(), codec.DeflateStream()
    sizes = {}
    with cluster.session() as session:
        for index in range(16):
            session.insert(f"key-{index:03d}", {"op": -index})
        for index in range(ops):
            key = f"key-{rng.randrange(16):03d}"
            request = {"id": index, "key": key, "service": None,
                       "origin": None, "unreachable": []}
            if index == ops - 1 or rng.random() < 0.8:
                request.update(op="retrieve", consistency="current",
                               max_probes=None)
                result = session.retrieve(key)
            else:
                data = {"op": index, "payload": f"value-{index:04d}" * 4}
                request.update(op="insert", data=data)
                result = session.insert(key, data)
            reply = {"id": index, "ok": True, "result": result}
            for name, payload, stream in (("retrieve_mid_stream", request, requests),
                                          ("retrieve_reply_mid_stream", reply,
                                           replies)):
                frame = codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY,
                                           stream=stream)
                sizes[name] = (payload, len(frame))
    return sizes


def build_payloads(batch: int = 64) -> Dict[str, dict]:
    """The measured payload shapes, keyed by scenario name."""
    items = _bulk_items(batch)
    return {
        **_point_replies(),
        "ping": {"id": 7, "op": "ping", "service": None},
        "retrieve": {"id": 11, "op": "retrieve", "key": "key-042",
                     "service": None, "origin": None, "unreachable": [],
                     "consistency": "current", "max_probes": None},
        "insert_many": {"id": 13, "op": "insert_many", "items": items,
                        "service": None, "origin": None, "unreachable": []},
        "retrieve_many_reply": {
            "id": 13, "ok": True,
            "result": {"results": [
                {"key": key, "found": True, "is_current": True,
                 "data": data, "replicas_inspected": 2,
                 "timestamp": {"__repro.timestamp__": True,
                               "key": key, "value": index}}
                for index, (key, data) in enumerate(items)]}},
        "sync_delta": {
            "id": 17, "ok": True,
            "result": {"entries": [
                {"key": key, "hash_name": f"hr-{index % 10}",
                 "data": data, "version": None,
                 "timestamp": {"__repro.timestamp__": True,
                               "key": key, "value": index}}
                for index, (key, data) in enumerate(items)]}},
    }


def run_suite(batch: int = 64) -> Dict:
    """Measure every payload under both formats; return the report dict."""
    report: Dict = {"harness": "bench_wire",
                    "meta": {"batch": batch,
                             "frame_header_bytes": codec.FRAME_HEADER_BYTES,
                             "mid_stream_ops": _MID_STREAM_OPS},
                    "results": {}}
    rows = {name: (payload, codec.frame_size(payload,
                                             wire_format=codec.FORMAT_BINARY))
            for name, payload in build_payloads(batch).items()}
    rows.update(_mid_stream())
    for name, (payload, binary_bytes) in rows.items():
        json_bytes = codec.frame_size(payload, wire_format=codec.FORMAT_JSON)
        cell = {"json_bytes": json_bytes, "binary_bytes": binary_bytes,
                "improvement": json_bytes / binary_bytes,
                "bulk": json_bytes >= _BULK_THRESHOLD_BYTES}
        report["results"][name] = cell
        print(f"{name:>22s}: json {json_bytes:>7d} B, binary "
              f"{binary_bytes:>7d} B  (x{cell['improvement']:.2f}"
              f"{', bulk' if cell['bulk'] else ''})")
    return report


def check(report: Dict, *, min_improvement: float,
          baseline_path: Optional[pathlib.Path] = None) -> int:
    """Enforce the bulk improvement bar (and baseline equality); exit code."""
    failures = []
    for name, cell in report["results"].items():
        if cell["bulk"] and cell["improvement"] < min_improvement:
            failures.append(f"{name}: x{cell['improvement']:.2f} < "
                            f"x{min_improvement:.1f} bulk improvement bar")
        if cell["binary_bytes"] >= cell["json_bytes"] and cell["bulk"]:
            failures.append(f"{name}: binary frame not smaller than JSON")
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        if baseline.get("meta") != report["meta"]:
            print(f"baseline {baseline_path} has different meta; skipping "
                  "the exact-size comparison", file=sys.stderr)
        else:
            for name, base_cell in baseline.get("results", {}).items():
                cell = report["results"].get(name)
                if cell is None:
                    continue
                for field in ("json_bytes", "binary_bytes"):
                    if base_cell.get(field) not in (None, cell[field]):
                        failures.append(
                            f"{name}.{field}: baseline {base_cell[field]} "
                            f"vs now {cell[field]} (frame sizes are "
                            "deterministic; this is a codec change)")
    if failures:
        print("\nbench_wire FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall bulk payloads beat the x{min_improvement:.1f} bar"
          + (f"; sizes match {baseline_path}" if baseline_path else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=64,
                        help="items per bulk payload")
    parser.add_argument("--min-improvement", type=float, default=2.0,
                        help="required JSON/binary size ratio on bulk payloads")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="report path (default "
                             "benchmarks/results/bench_wire.json)")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to compare exact sizes against")
    args = parser.parse_args(argv)

    report = run_suite(args.batch)
    output = args.output or (RESULTS_DIR / "bench_wire.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return check(report, min_improvement=args.min_improvement,
                 baseline_path=args.check)


if __name__ == "__main__":
    raise SystemExit(main())
