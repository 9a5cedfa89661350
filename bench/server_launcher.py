"""The server process of the ``tcp_*`` workloads.

Run as ``python -m bench.server_launcher``.  Builds the same cluster the
in-process workloads build (``Cluster.build`` + one bulk ``insert_many``),
hosts it behind the public ``NodeServer`` API on a free loopback port, and
talks to the benchmark over its standard output:

1. once listening, one JSON line ``{"address": [host, port], ...}``;
2. after a client's ``shutdown`` request stopped the server, one JSON line
   with the server's counters, its peak RSS and - with ``--trace`` - the
   spans its wrappers recorded, tagged with the wire request id.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, Optional

from bench import layers
from bench.backends import cluster_counters, peak_rss_kb
from bench.spans import Patches, Recorder, jsonable
from bench.workloads import CLUSTER_SEED, REPLICAS, key_names, preload
from repro.api import Cluster
from repro.net import NodeServer


async def serve(cluster: Any, recorder: Optional[Recorder]) -> Dict[str, Any]:
    """Serve ``cluster`` until a client asks for shutdown; return the report."""
    server = NodeServer(cluster)
    await server.start(host="127.0.0.1", port=0)
    before = cluster_counters(cluster)
    print(json.dumps({"address": list(server.tcp_address), "counters": before}),
          flush=True)
    await server.wait_stopped()
    return {"requests_served": server.requests_served,
            "max_inflight_observed": server.max_observed_inflight,
            "counters_before": before,
            "counters": cluster_counters(cluster),
            "spans": jsonable(recorder.dump()) if recorder is not None else None}


def main(argv: Optional[list] = None) -> int:
    """Entry point of the server process."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", required=True)
    parser.add_argument("--peers", type=int, required=True)
    parser.add_argument("--keys", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    cluster = Cluster.build(peers=args.peers, protocol=args.protocol,
                            service="ums", replicas=REPLICAS, seed=CLUSTER_SEED)
    with cluster.session() as session:
        preload(session, key_names(args.keys))
    recorder = None
    patches = Patches()
    if args.trace:
        recorder = Recorder()
        layers.install(patches, recorder, type(cluster.network.protocol),
                       server_side=True)
        recorder.start()
    try:
        report = asyncio.run(serve(cluster, recorder))
    finally:
        patches.restore()
    report["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
