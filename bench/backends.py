"""The two substrates a workload runs on, behind one small interface.

``SimBackend`` builds the cluster in this process; ``TcpBackend`` starts
``bench.server_launcher`` as a child, waits until it listens and connects
with one pooled connection (``pool_size=1``: a closed loop of one client has
one request in flight, and a second connection would only add a second
socket to wake).  ``open()`` is what ``setup_s`` times.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.workloads import (
    CLUSTER_SEED,
    REPLICAS,
    Scale,
    Workload,
    key_names,
    preload,
)

__all__ = ["ROOT", "SimBackend", "TcpBackend", "cluster_counters",
           "make_backend", "peak_rss_kb", "pin_to_one_cpu", "read_json_line",
           "spawn"]

#: The checkout: children run from here and nothing is written outside it.
ROOT = Path(__file__).resolve().parent.parent

#: Seconds a child gets to start listening or to hand in its final report.
CHILD_TIMEOUT_S = 120


def pin_to_one_cpu() -> None:
    """Restrict this process - and the children it starts later - to one CPU.

    The loop is closed with one request in flight, so client thread, client
    event loop and server process never run at the same time and lose
    nothing by sharing a CPU.  Spread over two vCPUs, each hand-over instead
    finds the other vCPU halted and waits for the hypervisor to wake it:
    that wait is a third of a tcp round trip here, and it changes with what
    the host's other tenants do, not with the code under test.  The highest
    numbered CPU is taken because device interrupts land on the lowest.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``) in kB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cluster_counters(cluster: Any) -> Dict[str, Any]:
    """The ``stats`` objects of the network and KTS plus the stored entries."""
    network = cluster.network
    return {"network": asdict(network.stats), "kts": asdict(cluster.kts.stats),
            "storage_entries": sum(len(network.peer(peer).store)
                                   for peer in network.alive_peer_ids())}


def spawn(module: str, *arguments: str) -> "subprocess.Popen[str]":
    """Start ``python -m <module>`` from the checkout with stdout piped."""
    environment = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if environment.get("PYTHONPATH"):
        paths.append(environment["PYTHONPATH"])
    environment["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.Popen([sys.executable, "-m", module, *arguments],
                            cwd=ROOT, env=environment, stdout=subprocess.PIPE,
                            text=True)


def read_json_line(child: "subprocess.Popen[str]") -> Dict[str, Any]:
    """The next stdout line of ``child`` as JSON; kills the child if it has none."""
    assert child.stdout is not None
    line = child.stdout.readline()
    if not line:
        child.kill()
        child.wait()
        raise RuntimeError(f"{child.args!r} exited without reporting")
    return json.loads(line)


class SimBackend:
    """The in-process substrate: ``Cluster.build`` plus the bulk preload."""

    def __init__(self, workload: Workload, scale: Scale, *, trace: bool = False) -> None:
        self.workload = workload
        self.scale = scale
        self.cluster: Any = None

    def open(self) -> None:
        """Build and preload the cluster (the timed set-up)."""
        from repro.api import Cluster

        self.cluster = Cluster.build(
            peers=self.scale.peers, protocol=self.workload.protocol,
            service="ums", replicas=REPLICAS, seed=CLUSTER_SEED)
        with self.cluster.session() as session:
            preload(session, key_names(self.scale.keys))

    def counters(self) -> Dict[str, Any]:
        """Current network / KTS / storage counters."""
        return cluster_counters(self.cluster)

    def transport(self) -> Dict[str, int]:
        """No transport in-process."""
        return {}

    def close(self) -> Dict[str, Any]:
        """Drop the cluster; the report mirrors the server's final line."""
        report = {"counters": self.counters(), "max_inflight_observed": 0,
                  "peak_rss_kb": 0, "spans": None}
        self.cluster = None
        return report


class TcpBackend:
    """A server process on loopback TCP and a one-connection client to it."""

    def __init__(self, workload: Workload, scale: Scale, *, trace: bool = False) -> None:
        self.workload = workload
        self.scale = scale
        self.trace = trace
        self.cluster: Any = None
        self.child: Optional["subprocess.Popen[str]"] = None
        self.counters_at_start: Dict[str, Any] = {}

    def open(self) -> None:
        """Start the server, wait until it listens, connect (the timed set-up)."""
        from repro.net import connect

        arguments: List[str] = ["--protocol", self.workload.protocol,
                                "--peers", str(self.scale.peers),
                                "--keys", str(self.scale.keys)]
        if self.trace:
            arguments.append("--trace")
        self.child = spawn("bench.server_launcher", *arguments)
        ready = read_json_line(self.child)
        self.counters_at_start = ready["counters"]
        host, port = ready["address"]
        try:
            self.cluster = connect((host, port), pool_size=1)
        except Exception:
            self.child.kill()
            self.child.wait()
            raise

    def counters(self) -> Dict[str, Any]:
        """The counters the server reported when it started listening."""
        return self.counters_at_start

    def transport(self) -> Dict[str, int]:
        """The client's ``TransportCounters`` as a dict."""
        return self.cluster.client.counters.as_dict()

    def close(self) -> Dict[str, Any]:
        """Shut the server down, collect its final report, reap the child."""
        assert self.child is not None
        try:
            self.cluster.shutdown_server()
            self.cluster.close()
            output, _ = self.child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self.child.kill()
            self.child.wait()
            raise
        if self.child.returncode != 0:
            raise RuntimeError(f"server exited with {self.child.returncode}")
        return json.loads(output)


def make_backend(workload: Workload, scale: Scale, *, trace: bool = False) -> Any:
    """The backend ``workload.backend`` names."""
    kind = {"sim": SimBackend, "tcp": TcpBackend}[workload.backend]
    return kind(workload, scale, trace=trace)
