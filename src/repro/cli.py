"""Command-line interface.

Seven entry points are provided (also installable as console scripts, and
reachable as ``python -m repro``):

* ``python -m repro simulate`` — run one simulation (one algorithm, one
  parameter point) and print the measured response time / communication cost;
* ``python -m repro scenario`` — the declarative scenario engine:
  ``list`` the registered scenarios, ``run`` one (with record/replay via
  ``--spec-out``/``--spec``), or ``compare`` scenarios × overlays × services
  as per-metric tables;
* ``python -m repro serve`` — real-service mode: host a cluster (overlay +
  stores + KTS/UMS handlers) behind the :mod:`repro.net` asyncio transport,
  over TCP and/or a Unix domain socket;
* ``python -m repro loadgen`` — the load harness: pace a mixed
  insert/retrieve workload with a scenario arrival model against any backend
  (``sim``/``tcp``/``uds``) and report throughput + p50/p95/p99 latency;
* ``python -m repro experiments`` — regenerate the paper's tables and
  figures (thin wrapper over :mod:`repro.experiments.runner`);
* ``python -m repro attack-grid`` — sweep byzantine fractions × overlays
  through :mod:`repro.experiments.attack_grid` and report the
  currency-degradation curve (measured certified currency vs the
  honest-baseline analytical guarantee, with per-overlay thresholds);
* ``python -m repro registry`` — list the pluggable backends: the DHT
  overlays of :mod:`repro.dht.registry`, the currency services of
  :mod:`repro.api.services`, the scenarios of
  :mod:`repro.simulation.scenarios.registry` and the execution backends of
  :mod:`repro.net.backends`.

Examples
--------
::

    python -m repro simulate --algorithm ums-direct --peers 2000 --duration 1800
    python -m repro simulate --algorithm brk --peers 500 --replicas 20 --json
    python -m repro scenario list
    python -m repro scenario run --scenario flashcrowd --protocol kademlia
    python -m repro scenario compare --scenarios hotspot,flashcrowd \
        --protocols chord,kademlia --services ums,brk --jobs 4
    python -m repro serve --port 9207 --peers 200 --seed 2007
    python -m repro loadgen --backend tcp --address 127.0.0.1:9207 \
        --arrival poisson --ops 500 --duration 5
    python -m repro experiments --scale quick --output results.md
    python -m repro experiments --scale paper --jobs 4 --cache-dir .repro-cache
    python -m repro attack-grid --fractions 0,0.1,0.3 --protocols chord,kademlia \
        --jobs 2 --output attack-degradation.json

``scenario compare``, ``experiments`` and ``attack-grid`` execute their
grids through the unified execution layer (:mod:`repro.execution`): ``--jobs N`` runs the grid
on a process pool with bit-identical results, ``--cache-dir`` caches and
skips already-executed points (``--no-cache`` forces re-execution).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api.results import Consistency
from repro.api.services import service_names
from repro.dht.registry import overlay_names
from repro.execution import Executor, RunPlan
from repro.experiments import runner as experiments_runner
from repro.experiments.attack_grid import (
    DEFAULT_FRACTIONS,
    DEFAULT_PROTOCOLS,
    default_attack_parameters,
    run_attack_grid,
)
from repro.experiments.reporting import comparison_tables
from repro.simulation.adversary import STRATEGIES
from repro.simulation.config import Algorithm, SimulationParameters
from repro.simulation.harness import run_simulation
from repro.simulation.scenarios import (
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)

__all__ = ["attack_grid_command", "build_parser", "loadgen_command", "main",
           "registry_command", "scenario_command", "serve_command",
           "simulate_command"]

#: Currency-service registry name -> harness algorithm, for ``--services``.
_SERVICE_ALGORITHMS = {"ums": Algorithm.UMS_DIRECT, "brk": Algorithm.BRK}


def _algorithm_for(name: str) -> str:
    """Resolve a ``--services`` entry: a service name or an algorithm name."""
    key = name.strip().lower()
    if key in _SERVICE_ALGORITHMS:
        return _SERVICE_ALGORITHMS[key]
    return Algorithm.validate(key)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Data Currency in Replicated DHTs' (SIGMOD 2007)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one simulation and report response time / messages")
    simulate.add_argument("--algorithm", choices=Algorithm.ALL, default=Algorithm.UMS_DIRECT)
    simulate.add_argument("--peers", type=int, default=1000,
                          help="number of peers (Table 1: 10000)")
    simulate.add_argument("--replicas", type=int, default=10, help="|Hr| (Table 1: 10)")
    simulate.add_argument("--keys", type=int, default=20, help="number of data items")
    simulate.add_argument("--duration", type=float, default=1800.0,
                          help="simulated seconds (Table 1: 10800)")
    simulate.add_argument("--queries", type=int, default=30,
                          help="measured queries per run (paper: 30)")
    simulate.add_argument("--churn-rate", type=float, default=None,
                          help="departures per second (default: Table 1 intensity "
                               "scaled to the population)")
    simulate.add_argument("--failure-rate", type=float, default=5.0,
                          help="percentage of departures that are failures")
    simulate.add_argument("--update-rate", type=float, default=1.0,
                          help="updates per data item per hour")
    simulate.add_argument("--protocol", choices=overlay_names(), default="chord",
                          help="DHT overlay (any overlay registered in "
                               "repro.dht.registry)")
    simulate.add_argument("--consistency", choices=Consistency.ALL,
                          default=Consistency.CURRENT,
                          help="per-retrieve freshness contract: 'current' is the "
                               "paper's certified retrieval, 'any' a first-replica "
                               "read, 'best-effort' a bounded-probe read")
    simulate.add_argument("--cluster", action="store_true",
                          help="use the 64-node-cluster cost model instead of Table 1's WAN")
    simulate.add_argument("--seed", type=int, default=2007)
    simulate.add_argument("--json", action="store_true", help="print a JSON summary")

    scenario = subparsers.add_parser(
        "scenario", help="declarative workload & fault scenarios "
                         "(list / run / compare)")
    scenario_subparsers = scenario.add_subparsers(dest="scenario_command",
                                                  required=True)

    scenario_subparsers.add_parser(
        "list", help="list the registered scenarios with their descriptions")

    def add_run_parameters(command: argparse.ArgumentParser) -> None:
        """Simulation knobs shared by ``scenario run`` and ``scenario compare``."""
        command.add_argument("--peers", type=int, default=None,
                             help="number of peers")
        command.add_argument("--replicas", type=int, default=None, help="|Hr|")
        command.add_argument("--keys", type=int, default=None,
                             help="number of data items")
        command.add_argument("--duration", type=float, default=None,
                             help="simulated seconds")
        command.add_argument("--queries", type=int, default=None,
                             help="measured queries per run")
        command.add_argument("--churn-rate", type=float, default=None,
                             help="departures per second (default: Table 1 "
                                  "intensity scaled to the population)")
        command.add_argument("--update-rate", type=float, default=None,
                             help="updates per data item per hour (before the "
                                  "scenario profile's multiplier)")
        command.add_argument("--consistency", choices=Consistency.ALL,
                             default=None,
                             help="per-retrieve freshness contract")
        command.add_argument("--seed", type=int, default=2007)

    run = scenario_subparsers.add_parser(
        "run", help="run one scenario and report its metrics")
    run.add_argument("--scenario", choices=scenario_names(), default=None,
                     help="registered scenario name")
    run.add_argument("--spec", default=None, metavar="FILE",
                     help="replay a run spec recorded with --spec-out "
                          "(mutually exclusive with --scenario and the "
                          "parameter flags)")
    run.add_argument("--spec-out", default=None, metavar="FILE",
                     help="record the resolved scenario + parameters as a "
                          "replayable JSON run spec")
    run.add_argument("--algorithm", choices=Algorithm.ALL, default=None,
                     help="currency algorithm (default: ums-direct, unless "
                          "the scenario overrides it)")
    run.add_argument("--protocol", choices=overlay_names(), default=None,
                     help="DHT overlay (default: chord, unless the scenario "
                          "overrides it)")
    add_run_parameters(run)
    run.add_argument("--json", action="store_true", help="print a JSON summary")

    compare = scenario_subparsers.add_parser(
        "compare", help="compare scenarios x overlays x services as "
                        "per-metric tables")
    compare.add_argument("--scenarios", default="uniform,hotspot",
                         help="comma-separated registered scenario names")
    compare.add_argument("--protocols", default="chord",
                         help="comma-separated overlay names")
    compare.add_argument("--services", default="ums,brk",
                         help="comma-separated currency services (or "
                              "algorithm names such as ums-indirect)")
    add_run_parameters(compare)
    compare.add_argument("--markdown", action="store_true",
                         help="render the tables as Markdown instead of text")
    compare.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the comparison grid "
                              "(default: serial, or REPRO_EXECUTOR_JOBS); "
                              "results are bit-identical to a serial run")
    compare.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="on-disk run cache: grid cells already executed "
                              "under DIR are skipped")
    compare.add_argument("--no-cache", action="store_true",
                         help="re-execute every cell even when cached")

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures")
    experiments.add_argument("--scale", choices=("tiny", "quick", "paper"), default="quick")
    experiments.add_argument("--seed", type=int, default=2007)
    experiments.add_argument("--protocol", choices=overlay_names(), default="chord",
                             help="DHT overlay for figures 6-12 and the "
                                  "probe-order ablation")
    experiments.add_argument("--output", default=None)
    experiments.add_argument("--no-ablations", action="store_true")
    experiments.add_argument("--jobs", type=int, default=None,
                             help="worker processes per sweep (bit-identical "
                                  "to a serial run)")
    experiments.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="on-disk run cache for the sweeps")
    experiments.add_argument("--no-cache", action="store_true",
                             help="re-execute cached points (refreshing them)")

    attack = subparsers.add_parser(
        "attack-grid", help="sweep byzantine fractions x overlays and report "
                            "the currency-degradation curve")
    attack.add_argument("--fractions",
                        default=",".join(str(value) for value in DEFAULT_FRACTIONS),
                        help="comma-separated byzantine fractions in [0, 1); "
                             "the 0.0 honest baseline is always included")
    attack.add_argument("--protocols", default=",".join(DEFAULT_PROTOCOLS),
                        help="comma-separated overlay names")
    attack.add_argument("--strategy", choices=STRATEGIES,
                        default="stale-replay",
                        help="how byzantine responsibles falsify timestamps")
    attack.add_argument("--lag", type=int, default=1,
                        help="timestamp lag of the max-lag / random-lie "
                             "strategies")
    attack.add_argument("--peers", type=int, default=None,
                        help="cluster size per grid point (default 120)")
    attack.add_argument("--replicas", type=int, default=None, help="|Hr|")
    attack.add_argument("--keys", type=int, default=None,
                        help="number of data items (default 6)")
    attack.add_argument("--queries", type=int, default=None,
                        help="measured queries per run (default 60)")
    attack.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per run (default 600)")
    attack.add_argument("--update-rate", type=float, default=None,
                        help="per-key updates per hour (default 60)")
    attack.add_argument("--seed", type=int, default=2007)
    attack.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the grid (default: serial, "
                             "or REPRO_EXECUTOR_JOBS); bit-identical to a "
                             "serial run")
    attack.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk run cache: grid points already executed "
                             "under DIR are skipped")
    attack.add_argument("--no-cache", action="store_true",
                        help="re-execute every point even when cached")
    attack.add_argument("--output", default=None, metavar="PATH",
                        help="write the attack-degradation JSON artifact here")
    attack.add_argument("--json", action="store_true",
                        help="print the JSON artifact instead of the table")

    serve = subparsers.add_parser(
        "serve", help="host a cluster behind the repro.net asyncio transport "
                      "(TCP and/or Unix domain socket)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9207,
                       help="TCP bind port (0 picks a free one; default 9207)")
    serve.add_argument("--uds", default=None, metavar="PATH",
                       help="additionally (or, with --no-tcp, exclusively) "
                            "listen on this Unix domain socket")
    serve.add_argument("--no-tcp", action="store_true",
                       help="do not open a TCP listener (requires --uds)")
    serve.add_argument("--peers", type=int, default=64, help="cluster size")
    serve.add_argument("--protocol", choices=overlay_names(), default="chord")
    serve.add_argument("--service", default="ums",
                       help="primary currency service "
                            f"(registered: {', '.join(service_names())})")
    serve.add_argument("--replicas", type=int, default=10, help="|Hr|")
    serve.add_argument("--seed", type=int, default=2007)
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="requests that may wait on one connection "
                            "before its socket stops being read "
                            "(the backpressure knob)")

    loadgen = subparsers.add_parser(
        "loadgen", help="generate load against a backend and report "
                        "throughput + p50/p95/p99 latency")
    loadgen.add_argument("--backend", default="sim",
                         help="execution backend: sim (in-process), tcp or "
                              "uds (a running `repro serve` node)")
    loadgen.add_argument("--address", default=None,
                         help="server address: host:port for tcp, socket "
                              "path for uds")
    loadgen.add_argument("--arrival", default="poisson",
                         help="arrival model: uniform, poisson, flash-crowd "
                              "or diurnal")
    loadgen.add_argument("--ops", type=int, default=200,
                         help="target operation count")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="wall-clock pacing window in seconds")
    loadgen.add_argument("--read-fraction", type=float, default=0.8,
                         help="fraction of operations that are retrieves")
    loadgen.add_argument("--keys", type=int, default=16,
                         help="distinct keys in the workload")
    loadgen.add_argument("--consistency", choices=Consistency.ALL,
                         default=Consistency.CURRENT)
    loadgen.add_argument("--no-pacing", action="store_true",
                         help="issue back-to-back (closed loop) instead of "
                              "following the arrival schedule")
    loadgen.add_argument("--peers", type=int, default=64,
                         help="cluster size (sim backend only)")
    loadgen.add_argument("--protocol", choices=overlay_names(), default="chord",
                         help="overlay (sim backend only)")
    loadgen.add_argument("--service", default="ums",
                         help="currency service (sim backend only)")
    loadgen.add_argument("--replicas", type=int, default=10,
                         help="|Hr| (sim backend only)")
    loadgen.add_argument("--seed", type=int, default=2007,
                         help="workload seed (and cluster seed for sim)")
    loadgen.add_argument("--timeout", type=float, default=5.0,
                         help="per-request transport timeout (net backends)")
    loadgen.add_argument("--max-retries", type=int, default=2,
                         help="bounded transport retries (net backends)")
    loadgen.add_argument("--wire-format", choices=("auto", "json", "binary"),
                         default="auto",
                         help="frame encoding for net backends: binary "
                              "(compact, zlib above a size threshold) when "
                              "the server advertises it, else json")
    loadgen.add_argument("--sync-round", action="store_true",
                         help="run one delta anti-entropy round "
                              "(sync_replicas) after the load and attach its "
                              "report to the artifact")
    loadgen.add_argument("--output", default=None, metavar="FILE",
                         help="report path (default: benchmarks/results/"
                              "loadgen-<arrival>-<backend>-<hash12>.json)")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full JSON report to stdout")
    loadgen.add_argument("--shutdown", action="store_true",
                         help="ask the server to shut down gracefully after "
                              "the run (net backends)")

    subparsers.add_parser(
        "registry", help="list the registered DHT overlays and currency services")
    return parser


def _parameters_from_args(arguments: argparse.Namespace) -> SimulationParameters:
    churn_rate = arguments.churn_rate
    if churn_rate is None:
        # Preserve Table 1's churn intensity (1 departure/s across 10,000 peers
        # over 3 hours) for whatever population/duration was requested.
        churn_rate = 1.08 * arguments.peers / arguments.duration
    return SimulationParameters(
        num_peers=arguments.peers, num_replicas=arguments.replicas,
        num_keys=arguments.keys, duration_s=arguments.duration,
        num_queries=arguments.queries, churn_rate_per_s=churn_rate,
        failure_rate=arguments.failure_rate / 100.0,
        update_rate_per_hour=arguments.update_rate, protocol=arguments.protocol,
        cost_model_preset="cluster" if arguments.cluster else "wide-area",
        algorithm=arguments.algorithm, consistency=arguments.consistency,
        seed=arguments.seed)


def simulate_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``simulate`` sub-command."""
    stream = stream if stream is not None else sys.stdout
    parameters = _parameters_from_args(arguments)
    result = run_simulation(parameters)
    summary = result.summary()
    if arguments.json:
        payload = {"algorithm": result.algorithm, "protocol": parameters.protocol,
                   "service": Algorithm.service_name(result.algorithm),
                   "consistency": parameters.consistency,
                   "num_peers": result.num_peers,
                   "num_replicas": result.num_replicas, **summary}
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    label = Algorithm.label(result.algorithm)
    stream.write(f"algorithm            : {label}\n")
    stream.write(f"service              : {Algorithm.service_name(result.algorithm)}\n")
    stream.write(f"overlay              : {parameters.protocol}\n")
    stream.write(f"consistency          : {parameters.consistency}\n")
    stream.write(f"peers / replicas     : {result.num_peers} / {result.num_replicas}\n")
    stream.write(f"queries measured     : {result.query_count}\n")
    stream.write(f"avg response time    : {result.avg_response_time_s:.2f} s\n")
    stream.write(f"avg messages / query : {result.avg_messages:.1f}\n")
    stream.write(f"avg replicas probed  : {result.avg_replicas_inspected:.2f}\n")
    stream.write(f"certified current    : {result.currency_rate:.0%}\n")
    stream.write(f"churn events (fails) : {result.churn_events} ({result.failures})\n")
    stream.write(f"updates performed    : {result.updates_performed}\n")
    return 0


def registry_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``registry`` sub-command: list the pluggable backends."""
    stream = stream if stream is not None else sys.stdout
    stream.write(f"overlays (repro.dht.registry) : {', '.join(overlay_names())}\n")
    stream.write(f"services (repro.api.services) : {', '.join(service_names())}\n")
    stream.write(f"consistency levels            : {', '.join(Consistency.ALL)}\n")
    stream.write(f"scenarios (repro scenario)    : {', '.join(scenario_names())}\n")
    from repro.net.backends import backend_names

    stream.write(f"backends (repro.net.backends) : {', '.join(backend_names())}\n")
    return 0


def serve_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``serve`` sub-command: host a cluster over TCP and/or UDS."""
    stream = stream if stream is not None else sys.stdout
    import asyncio
    import signal

    from repro.net.server import NodeServer

    if arguments.no_tcp and arguments.uds is None:
        raise SystemExit("--no-tcp requires --uds (nothing left to listen on)")
    server = NodeServer(peers=arguments.peers, protocol=arguments.protocol,
                        service=arguments.service, replicas=arguments.replicas,
                        seed=arguments.seed, max_inflight=arguments.max_inflight)

    async def _serve() -> None:
        await server.start(host=None if arguments.no_tcp else arguments.host,
                           port=arguments.port, uds=arguments.uds)
        if server.tcp_address is not None:
            host, port = server.tcp_address
            stream.write(f"listening on tcp://{host}:{port}\n")
        if server.uds_path is not None:
            stream.write(f"listening on uds://{server.uds_path}\n")
        stream.write(f"serving {server.cluster.size} peers "
                     f"({arguments.protocol}, service={arguments.service}, "
                     f"seed={arguments.seed}); Ctrl-C or a client 'shutdown' "
                     "request stops gracefully\n")
        if hasattr(stream, "flush"):
            stream.flush()
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signal_number,
                    lambda: loop.create_task(server.stop()))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers
        await server.wait_stopped()

    asyncio.run(_serve())
    stream.write(f"stopped after {server.requests_served} requests\n")
    return 0


def loadgen_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``loadgen`` sub-command: paced load + latency percentiles."""
    stream = stream if stream is not None else sys.stdout
    import pathlib

    from repro.net.backends import backend_names, build_backend
    from repro.net.loadgen import LoadSpec, run_load, write_report

    backend = arguments.backend.lower()
    if backend not in backend_names():
        raise SystemExit(f"unknown backend {backend!r}; registered backends: "
                         f"{', '.join(backend_names())}")
    if backend != "sim" and arguments.address is None:
        raise SystemExit(f"--backend {backend} requires --address "
                         "(host:port for tcp, a socket path for uds)")
    try:
        spec = LoadSpec(ops=arguments.ops, duration_s=arguments.duration,
                        arrival={"model": arguments.arrival},
                        read_fraction=arguments.read_fraction,
                        keys=arguments.keys, consistency=arguments.consistency,
                        seed=arguments.seed)
    except ValueError as error:
        raise SystemExit(str(error)) from error

    if backend == "sim":
        options = dict(peers=arguments.peers, protocol=arguments.protocol,
                       service=arguments.service, replicas=arguments.replicas,
                       seed=arguments.seed)
    else:
        options = dict(address=arguments.address, timeout_s=arguments.timeout,
                       max_retries=arguments.max_retries,
                       wire_format=arguments.wire_format)
    try:
        cluster = build_backend(backend, **options)
    except (ValueError, OSError) as error:
        raise SystemExit(f"could not build backend {backend!r}: {error}") from error

    try:
        report = run_load(cluster, spec, backend=backend,
                          paced=not arguments.no_pacing)
        if arguments.sync_round:
            sync_report = cluster.sync_replicas()
            report.sync = (sync_report if isinstance(sync_report, dict)
                           else sync_report.to_dict())
        if arguments.shutdown and hasattr(cluster, "shutdown_server"):
            cluster.shutdown_server()
    finally:
        close = getattr(cluster, "close", None)
        if close is not None:
            close()

    output = pathlib.Path(arguments.output) if arguments.output else None
    path = write_report(report, output)
    if arguments.json:
        stream.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        stream.write(f"report written to {path}\n")
        return 0
    latency = report.to_dict()["latency_ms"]
    stream.write(f"backend              : {backend}\n")
    stream.write(f"arrival model        : {spec.arrival_model}\n")
    stream.write(f"operations           : {report.operations} "
                 f"({report.errors} errors)\n")
    stream.write(f"elapsed              : {report.elapsed_s:.2f} s\n")
    stream.write(f"throughput           : {report.throughput_ops_per_s:.1f} ops/s\n")
    stream.write(f"latency p50/p95/p99  : {latency['p50']:.2f} / "
                 f"{latency['p95']:.2f} / {latency['p99']:.2f} ms\n")
    if report.transport is not None:
        stream.write(f"transport            : {report.transport['requests']} "
                     f"requests, {report.transport['retries']} retries, "
                     f"{report.transport['timeouts']} timeouts\n")
        if "bytes_per_op" in report.transport:
            stream.write(f"bytes per op         : "
                         f"{report.transport['bytes_per_op']:.1f} "
                         f"({report.transport['wire_format']} frames)\n")
    if report.sync is not None:
        stream.write(f"delta sync           : {report.sync['entries_shipped']} "
                     f"shipped / {report.sync['entries_skipped']} skipped, "
                     f"transfer ratio {report.sync['transfer_ratio']:.3f}\n")
    stream.write(f"report written to {path}\n")
    return 0


#: Default simulation knobs of ``scenario run`` (single, closer look) and
#: ``scenario compare`` (many runs, so smaller per-run cost), as
#: :class:`SimulationParameters` fields.
_SCENARIO_RUN_DEFAULTS = dict(num_peers=400, num_replicas=10, num_keys=20,
                              duration_s=1800.0, num_queries=40)
_SCENARIO_COMPARE_DEFAULTS = dict(num_peers=120, num_replicas=5, num_keys=10,
                                  duration_s=600.0, num_queries=15)

#: CLI flag -> :class:`SimulationParameters` field, for the scenario commands.
_SCENARIO_FLAG_FIELDS = {
    "peers": "num_peers", "replicas": "num_replicas", "keys": "num_keys",
    "duration": "duration_s", "queries": "num_queries",
    "churn_rate": "churn_rate_per_s", "update_rate": "update_rate_per_hour",
    "consistency": "consistency",
}


def _explicit_scenario_flags(arguments: argparse.Namespace) -> dict:
    """The simulation fields the user pinned explicitly on the command line.

    Every scenario parameter flag defaults to ``None``, so a non-``None``
    value means the user typed it — these beat a scenario spec's
    ``overrides`` (the caller-wins contract of :func:`run_scenario`).
    """
    explicit = {}
    for flag, field in _SCENARIO_FLAG_FIELDS.items():
        value = getattr(arguments, flag, None)
        if value is not None:
            explicit[field] = value
    for field in ("algorithm", "protocol"):
        value = getattr(arguments, field, None)
        if value is not None:
            explicit[field] = value
    return explicit


def _resolve_scenario_run(spec: ScenarioSpec, defaults: dict, explicit: dict,
                          seed: int):
    """Materialise one run: ``defaults`` < ``spec.overrides`` < ``explicit``.

    Returns ``(spec without overrides, SimulationParameters)`` — the
    overrides are folded into the parameters, so recording the pair and
    replaying it cannot re-apply them over an explicitly pinned flag.
    """
    merged = dict(update_rate_per_hour=1.0, consistency=Consistency.CURRENT,
                  algorithm=Algorithm.UMS_DIRECT, protocol="chord", seed=seed)
    merged.update(defaults)
    merged.update(spec.overrides)
    merged.update(explicit)
    if merged.get("churn_rate_per_s") is None:
        # Table 1's churn intensity, scaled to the *effective* population and
        # duration (the same scaling the ``simulate`` sub-command applies).
        merged.pop("churn_rate_per_s", None)
        merged["churn_rate_per_s"] = (1.08 * merged["num_peers"]
                                      / merged["duration_s"])
    effective_spec = ScenarioSpec(name=spec.name, description=spec.description,
                                  popularity=spec.popularity,
                                  arrivals=spec.arrivals, profile=spec.profile,
                                  faults=spec.faults, overrides={})
    return effective_spec, SimulationParameters(**merged)


def _write_scenario_result(result, *, as_json: bool, stream) -> None:
    """Render one scenario run (text or JSON) to ``stream``.

    Overlay/consistency are read from ``result.parameters`` — the knobs the
    run *actually* used, which matters when a scenario spec overrides them.
    """
    summary = result.summary()
    protocol = result.parameters["protocol"]
    consistency = result.parameters["consistency"]
    if as_json:
        payload = {"scenario": result.scenario, "algorithm": result.algorithm,
                   "protocol": protocol, "consistency": consistency,
                   "num_peers": result.num_peers,
                   "num_replicas": result.num_replicas, **summary}
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    stream.write(f"scenario             : {result.scenario}\n")
    stream.write(f"algorithm            : {Algorithm.label(result.algorithm)}\n")
    stream.write(f"overlay              : {protocol}\n")
    stream.write(f"consistency          : {consistency}\n")
    stream.write(f"peers / replicas     : {result.num_peers} / {result.num_replicas}\n")
    stream.write(f"queries measured     : {result.query_count}\n")
    stream.write(f"avg response time    : {result.avg_response_time_s:.2f} s\n")
    stream.write(f"avg messages / query : {result.avg_messages:.1f}\n")
    stream.write(f"certified current    : {result.currency_rate:.0%}\n")
    stream.write(f"churn events (fails) : {result.churn_events} ({result.failures})\n")
    stream.write(f"fault events fired   : {result.fault_events}\n")
    stream.write(f"updates performed    : {result.updates_performed}\n")


def scenario_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``scenario`` sub-commands (``list`` / ``run`` / ``compare``)."""
    stream = stream if stream is not None else sys.stdout

    if arguments.scenario_command == "list":
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            spec = get_scenario(name)
            stream.write(f"{name.ljust(width)}  {spec.description}\n")
        return 0

    if arguments.scenario_command == "run":
        explicit = _explicit_scenario_flags(arguments)
        if arguments.spec is not None:
            # A recorded spec replays exactly; any knob flag would silently
            # lose, so reject the combination outright.
            if arguments.scenario is not None:
                raise SystemExit("pass either --scenario or --spec, not both")
            if explicit:
                raise SystemExit("--spec replays the recorded parameters "
                                 "bit-for-bit; drop the parameter flags "
                                 f"({', '.join(sorted(explicit))}) or re-run "
                                 "with --scenario to change them")
            with open(arguments.spec, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            spec = ScenarioSpec.from_dict(payload["scenario"])
            parameters = SimulationParameters(**payload["parameters"])
        else:
            name = arguments.scenario if arguments.scenario is not None else "uniform"
            spec, parameters = _resolve_scenario_run(
                get_scenario(name), _SCENARIO_RUN_DEFAULTS, explicit,
                arguments.seed)
        if arguments.spec_out is not None:
            record = {"scenario": spec.to_dict(),
                      "parameters": parameters.describe()}
            with open(arguments.spec_out, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
        result = run_scenario(spec, parameters)
        _write_scenario_result(result, as_json=arguments.json, stream=stream)
        return 0

    if arguments.scenario_command == "compare":
        scenarios = [name.strip() for name in arguments.scenarios.split(",")
                     if name.strip()]
        protocols = [name.strip() for name in arguments.protocols.split(",")
                     if name.strip()]
        services = [name.strip() for name in arguments.services.split(",")
                    if name.strip()]
        if not scenarios or not protocols or not services:
            raise SystemExit("compare needs at least one scenario, one "
                             "protocol and one service")
        # Validate every axis up front: a typo must fail fast with a CLI
        # error, not a traceback after half the grid has already run.
        try:
            specs = {name: get_scenario(name) for name in scenarios}
            algorithms = {service: _algorithm_for(service)
                          for service in services}
        except ValueError as error:
            raise SystemExit(str(error)) from error
        unknown = [name for name in protocols if name not in overlay_names()]
        if unknown:
            raise SystemExit(f"unknown protocol(s) {', '.join(unknown)}; "
                             f"registered overlays: {', '.join(overlay_names())}")
        explicit = _explicit_scenario_flags(arguments)
        # The whole grid is one run plan executed by the unified execution
        # layer: --jobs parallelises it, --cache-dir skips executed cells.
        plan = RunPlan(name="scenario-compare")
        cells = []
        for scenario_name in scenarios:
            for service in services:
                for protocol in protocols:
                    # The grid axes are explicit by construction: they must
                    # beat a scenario's own algorithm/protocol overrides.
                    cell = dict(explicit, algorithm=algorithms[service],
                                protocol=protocol)
                    spec, parameters = _resolve_scenario_run(
                        specs[scenario_name], _SCENARIO_COMPARE_DEFAULTS,
                        cell, arguments.seed)
                    label = f"{service.lower()}@{protocol}"
                    plan.add(parameters, scenario=spec,
                             label=f"{scenario_name}:{label}")
                    cells.append((scenario_name, label))
        executor = Executor(arguments.jobs, cache_dir=arguments.cache_dir,
                            use_cache=not arguments.no_cache)
        results = executor.run(plan)
        records = [(scenario_name, label, result.summary())
                   for (scenario_name, label), result in zip(cells, results)]
        for table in comparison_tables(records):
            rendered = (table.to_markdown() if arguments.markdown
                        else table.to_text())
            stream.write(rendered + "\n\n")
        return 0

    raise SystemExit(f"unknown scenario command {arguments.scenario_command!r}")


def attack_grid_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``attack-grid`` command: the currency-degradation sweep."""
    stream = stream if stream is not None else sys.stdout
    try:
        fractions = [float(value) for value in arguments.fractions.split(",")
                     if value.strip()]
    except ValueError as error:
        raise SystemExit(f"bad --fractions: {error}") from error
    protocols = [name.strip() for name in arguments.protocols.split(",")
                 if name.strip()]
    if not fractions or not protocols:
        raise SystemExit("attack-grid needs at least one fraction and one "
                         "protocol")
    unknown = [name for name in protocols if name not in overlay_names()]
    if unknown:
        raise SystemExit(f"unknown protocol(s) {', '.join(unknown)}; "
                         f"registered overlays: {', '.join(overlay_names())}")
    parameters = default_attack_parameters(seed=arguments.seed)
    overrides = {key: value for key, value in (
        ("num_peers", arguments.peers), ("num_replicas", arguments.replicas),
        ("num_keys", arguments.keys), ("num_queries", arguments.queries),
        ("duration_s", arguments.duration),
        ("update_rate_per_hour", arguments.update_rate)) if value is not None}
    if overrides:
        parameters = parameters.with_overrides(**overrides)
    executor = Executor(arguments.jobs, cache_dir=arguments.cache_dir,
                        use_cache=not arguments.no_cache)
    try:
        report = run_attack_grid(parameters, fractions=fractions,
                                 protocols=protocols,
                                 strategy=arguments.strategy,
                                 lag=arguments.lag, executor=executor)
    except ValueError as error:
        raise SystemExit(str(error)) from error
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if arguments.json:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return 0
    stream.write(f"attack-degradation ({report['strategy']}), "
                 f"plan {report['plan_hash'][:12]}\n")
    for protocol in report["protocols"]:
        entry = report["overlays"][protocol]
        threshold = entry["threshold"]
        shown = f"{threshold:g}" if threshold is not None else "not reached"
        stream.write(f"\n{protocol}: guarantee "
                     f"{entry['baseline_currency']:.3f}, "
                     f"threshold {shown}\n")
        for point in entry["points"]:
            stream.write(f"  f={point['fraction']:<5g} "
                         f"currency={point['currency']:.3f} "
                         f"detected_lies={point['detected_lies']:>3d} "
                         f"violations={point['violations']:d}\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "simulate":
        return simulate_command(arguments)
    if arguments.command == "scenario":
        return scenario_command(arguments)
    if arguments.command == "registry":
        return registry_command(arguments)
    if arguments.command == "serve":
        return serve_command(arguments)
    if arguments.command == "loadgen":
        return loadgen_command(arguments)
    if arguments.command == "attack-grid":
        return attack_grid_command(arguments)
    if arguments.command == "experiments":
        runner_args = ["--scale", arguments.scale, "--seed", str(arguments.seed),
                       "--protocol", arguments.protocol]
        if arguments.output:
            runner_args += ["--output", arguments.output]
        if arguments.no_ablations:
            runner_args.append("--no-ablations")
        if arguments.jobs is not None:
            runner_args += ["--jobs", str(arguments.jobs)]
        if arguments.cache_dir is not None:
            runner_args += ["--cache-dir", arguments.cache_dir]
        if arguments.no_cache:
            runner_args.append("--no-cache")
        return experiments_runner.main(runner_args)
    parser.error(f"unknown command {arguments.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
