"""Probes: small measurements outside any workload, run with every traced run.

* one point per overlay (build, one traced route, one churn event) at the
  workload population, so the three overlays can be compared on one machine
  and date (CAN at 10 000 peers costs 7.6 ms per retrieve and 154 s to
  preload - noted here, not run);
* warm and cold ``PairwiseIndependentHash`` evaluation.  The ``dht.hashing``
  caches hold 65 536 keys per function, more than a workload can preload
  inside the time cap, so cold hashing is a probe and not a workload;
* the loopback round trip of a process that imports nothing from the repo.

All times are norm (see :mod:`bench.yardstick`).
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Dict

from bench.backends import read_json_line, spawn
from bench.metrics import OVERLAYS
from bench.workloads import CLUSTER_SEED, REPLICAS, Churn
from bench.yardstick import timed

__all__ = ["echo_rtt_us", "hashing_probes", "overlay_probes"]

ROUTES = 1500
CHURN_EVENTS = 30
HASH_CALLS = 20000
ECHO_ROUND_TRIPS = 2000


def overlay_probes(peers: int) -> Dict[str, float]:
    """``overlay.<name>.build_s`` / ``route_us`` / ``churn_event_us``."""
    from repro.api import Cluster

    out: Dict[str, float] = {}
    for overlay in OVERLAYS:
        cluster, _raw, build_s = timed(lambda: Cluster.build(
            peers=peers, protocol=overlay, service="ums", replicas=REPLICAS,
            seed=CLUSTER_SEED))
        network = cluster.network
        hash_fn = cluster.replication[0]

        def route() -> None:
            for index in range(ROUTES):
                network.lookup(f"probe-{index}", hash_fn,
                               trace=network.new_trace())

        churn = Churn(network)

        def events() -> None:
            for _ in range(CHURN_EVENTS):
                churn.step()

        _none, _raw, route_s = timed(route)
        _none, _raw, churn_s = timed(events)
        out[f"overlay.{overlay}.build_s"] = build_s
        out[f"overlay.{overlay}.route_us"] = route_s * 1e6 / ROUTES
        out[f"overlay.{overlay}.churn_event_us"] = churn_s * 1e6 / CHURN_EVENTS
    return out


def hashing_probes() -> Dict[str, float]:
    """``hashing.point_cold_us`` (first sight of a key) and ``point_warm_us``."""
    from repro.dht.hashing import HashFamily

    hash_fn = HashFamily(bits=32, seed=CLUSTER_SEED).sample("probe")
    keys = [f"probe-cold-{index}" for index in range(HASH_CALLS)]

    def evaluate() -> None:
        for key in keys:
            hash_fn(key)

    _none, _raw, cold_s = timed(evaluate)
    _none, _raw, warm_s = timed(evaluate)
    return {"hashing.point_cold_us": cold_s * 1e6 / HASH_CALLS,
            "hashing.point_warm_us": warm_s * 1e6 / HASH_CALLS}


def echo_rtt_us() -> float:
    """Median raw round trip of a 64-byte message to ``bench.echo``, in us."""
    child = spawn("bench.echo")
    try:
        host, port = read_json_line(child)["address"]
        message = b"x" * 64
        samples = []
        with socket.create_connection((host, port)) as connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(ECHO_ROUND_TRIPS):
                start = time.perf_counter_ns()
                connection.sendall(message)
                received = 0
                while received < len(message):
                    received += len(connection.recv(4096))
                samples.append(time.perf_counter_ns() - start)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return statistics.median(samples) / 1e3
