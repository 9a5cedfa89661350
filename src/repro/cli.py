"""Command-line interface.

Four entry points are provided (also installable as console scripts, and
reachable as ``python -m repro``):

* ``python -m repro scenario`` — the declarative scenario engine:
  ``list`` the scenarios or ``run`` one simulation point (the paper's
  ``uniform`` workload unless ``--scenario`` names another; record/replay
  via ``--spec-out``/``--spec``) and print its response time, messages and
  currency;
* ``python -m repro serve`` — real-service mode: host a cluster (overlay +
  stores + KTS/UMS handlers) behind the :mod:`repro.net` asyncio transport,
  over TCP and/or a Unix domain socket, for :func:`repro.net.connect`;
* ``python -m repro experiments`` — regenerate the paper's tables and
  figures, the ablations, the byzantine attack grid and the scenario
  comparison (the flags and the run are :mod:`repro.experiments.runner`'s);
* ``python -m repro registry`` — list the name tables: the DHT overlays
  of :mod:`repro.dht.registry`, the currency services of
  :mod:`repro.api.services`, the consistency levels of
  :mod:`repro.api.results` and the scenarios of
  :mod:`repro.simulation.scenarios.registry`.

Each sub-command's parser names its handler (``set_defaults(handler=...)``);
:func:`main` only parses and dispatches, and reports a flag value that the
object it configures rejects as a usage error (exit 2).

Examples
--------
::

    python -m repro scenario run --algorithm ums-direct --peers 2000 --duration 1800
    python -m repro scenario run --algorithm brk --peers 500 --replicas 20 --json
    python -m repro scenario list
    python -m repro scenario run --scenario flashcrowd --protocol kademlia
    python -m repro serve --port 9207 --peers 200 --seed 2007
    python -m repro experiments --scale quick --output results.md
    python -m repro experiments --scale paper --jobs 4 --cache-dir .repro-cache
    python -m repro experiments --scale tiny --seed 3 --only attack --jobs 2

``experiments`` executes its one plan through the unified execution layer
(:mod:`repro.execution`): ``--jobs N`` runs it on a process pool with
bit-identical results, ``--cache-dir`` caches and skips already-executed
points (``--no-cache`` forces re-execution).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api.results import Consistency
from repro.api.services import SERVICES
from repro.dht.registry import OVERLAYS
from repro.execution.plan import RunPoint
from repro.experiments import runner as experiments_runner
from repro.simulation.config import Algorithm, SimulationParameters, table1_churn_rate
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec, fold_overrides, run_scenario

__all__ = ["build_parser", "main", "registry_command",
           "scenario_list_command", "scenario_run_command", "serve_command"]


def _percent(text: str) -> float:
    """A ``--failure-rate`` percentage as the fraction the parameters hold."""
    return float(text) / 100.0


def _knobs() -> dict:
    """``scenario run``'s knob flags: flag -> (field, ``add_argument`` options).

    Each names a :class:`SimulationParameters` field and defaults to
    ``None``, "not typed": the command's defaults and a scenario spec's
    overrides fill it in, and a typed flag beats both (see
    :func:`_resolve_scenario_run`).  Built per call, so ``--protocol`` offers
    the overlays in the table at the time.
    """
    return {
        "--peers": ("num_peers", dict(type=int, help="number of peers (Table 1: 10000)")),
        "--replicas": ("num_replicas", dict(type=int, help="|Hr| (Table 1: 10)")),
        "--keys": ("num_keys", dict(type=int, help="number of data items")),
        "--duration": ("duration_s", dict(type=float,
                                          help="simulated seconds (Table 1: 10800)")),
        "--queries": ("num_queries", dict(type=int,
                                          help="measured queries per run (paper: 30)")),
        "--churn-rate": ("churn_rate_per_s", dict(
            type=float, help="departures per second (default: Table 1 intensity "
                             "scaled to the population)")),
        "--failure-rate": ("failure_rate", dict(
            type=_percent, help="percentage of departures that are failures (Table 1: 5)")),
        "--update-rate": ("update_rate_per_hour", dict(
            type=float, help="updates per data item per hour (before the scenario "
                             "profile's multiplier)")),
        "--cluster": ("cost_model_preset", dict(
            action="store_const", const="cluster",
            help="use the 64-node-cluster cost model instead of Table 1's WAN")),
        "--consistency": ("consistency", dict(
            choices=Consistency.ALL,
            help="per-retrieve freshness contract: 'current' is the paper's certified "
                 "retrieval, 'any' a first-replica read, 'best-effort' a bounded-probe read")),
        "--algorithm": ("algorithm", dict(
            choices=Algorithm.ALL,
            help="currency algorithm (default: ums-direct, unless the scenario overrides it)")),
        "--protocol": ("protocol", dict(
            choices=sorted(OVERLAYS),
            help="DHT overlay, any name in repro.dht.registry's OVERLAYS (default: chord, "
                 "unless the scenario overrides it)")),
        "--seed": ("seed", dict(type=int, help="run seed (default: 2007)")),
    }


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Data Currency in Replicated DHTs' (SIGMOD 2007)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser(
        "scenario", help="declarative workload & fault scenarios (list / run)")
    scenario_subparsers = scenario.add_subparsers(dest="scenario_command",
                                                  required=True)

    scenario_subparsers.add_parser(
        "list", help="list the scenarios with their descriptions"
    ).set_defaults(handler=scenario_list_command)

    run = scenario_subparsers.add_parser(
        "run", help="run one simulation point of a scenario (default: the "
                    "paper's uniform workload) and report its metrics")
    run.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                     help="scenario name (see 'repro scenario list'; "
                          "default: uniform)")
    run.add_argument("--spec", default=None, metavar="FILE",
                     help="replay a run spec recorded with --spec-out "
                          "(mutually exclusive with --scenario and the "
                          "parameter flags)")
    run.add_argument("--spec-out", default=None, metavar="FILE",
                     help="record the resolved scenario + parameters as a "
                          "replayable JSON run spec")
    for flag, (field, options) in _knobs().items():
        run.add_argument(flag, dest=field, default=None, **options)
    run.add_argument("--json", action="store_true", help="print a JSON summary")
    run.set_defaults(handler=scenario_run_command)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures")
    experiments_runner.add_arguments(experiments)
    experiments.set_defaults(handler=experiments_runner.run_command)

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
    serve.add_argument("--protocol", choices=sorted(OVERLAYS), default="chord")
    serve.add_argument("--service", choices=sorted(SERVICES), default="ums",
                       help="primary currency service")
    serve.add_argument("--replicas", type=int, default=10, help="|Hr|")
    serve.add_argument("--seed", type=int, default=2007)
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="requests that may wait on one connection "
                            "before its socket stops being read "
                            "(the backpressure knob)")
    serve.set_defaults(handler=serve_command)

    subparsers.add_parser(
        "registry", help="list the name tables: DHT overlays, currency "
                         "services, consistency levels and scenarios"
    ).set_defaults(handler=registry_command)
    return parser


def registry_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``registry`` sub-command: one line per name table."""
    stream = stream if stream is not None else sys.stdout
    tables = {"overlays (repro.dht.registry)": sorted(OVERLAYS),
              "services (repro.api.services)": sorted(SERVICES),
              "consistency levels (repro.api.results)": Consistency.ALL,
              "scenarios (repro.simulation.scenarios.registry)": sorted(SCENARIOS)}
    width = max(len(label) for label in tables)
    for label, names in tables.items():
        stream.write(f"{label.ljust(width)} : {', '.join(names)}\n")
    return 0


def serve_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``serve`` sub-command: host a cluster over TCP and/or UDS."""
    stream = stream if stream is not None else sys.stdout
    import asyncio
    import signal

    from repro.net.server import NodeServer

    if arguments.no_tcp and arguments.uds is None:
        raise SystemExit("--no-tcp requires --uds (nothing left to listen on)")
    try:
        server = NodeServer(peers=arguments.peers, protocol=arguments.protocol,
                            service=arguments.service, replicas=arguments.replicas,
                            seed=arguments.seed, max_inflight=arguments.max_inflight)
    except ValueError as error:
        raise argparse.ArgumentError(None, str(error)) from error

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


#: Default knobs of ``scenario run``, as :class:`SimulationParameters` fields.
_SCENARIO_RUN_DEFAULTS = dict(num_peers=400, num_replicas=10, num_keys=20,
                              duration_s=1800.0, num_queries=40, seed=2007)


def _resolve_scenario_run(spec: ScenarioSpec, explicit: dict) -> RunPoint:
    """Materialise one run: defaults < ``spec.overrides`` < ``explicit``.

    Returns the :class:`RunPoint` — its spec has no overrides left, so
    recording it and replaying it cannot re-apply them over a typed flag.
    Unless pinned, the churn rate is Table 1's intensity for the *effective*
    population and duration.  A value the parameters reject raises
    :class:`argparse.ArgumentError`.
    """
    try:
        base = SimulationParameters(**_SCENARIO_RUN_DEFAULTS)
        _, sized = fold_overrides(spec, base, **explicit)
        base = base.with_overrides(churn_rate_per_s=table1_churn_rate(
            sized.num_peers, sized.duration_s))
        spec, parameters = fold_overrides(spec, base, **explicit)
    except ValueError as error:
        raise argparse.ArgumentError(None, str(error)) from error
    return RunPoint(parameters=parameters, scenario=spec)


def _write_run_result(result, *, as_json: bool, stream) -> None:
    """Render one ``scenario run`` result (text or JSON) to ``stream``.

    Overlay/consistency are read from ``result.parameters`` — the knobs the
    run *actually* used, which matters when a scenario spec overrides them.
    """
    protocol = result.parameters["protocol"]
    consistency = result.parameters["consistency"]
    service = Algorithm.service_name(result.algorithm)
    if as_json:
        payload = {"scenario": result.scenario, "algorithm": result.algorithm,
                   "service": service, "protocol": protocol,
                   "consistency": consistency, "num_peers": result.num_peers,
                   "num_replicas": result.num_replicas, **result.summary()}
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    stream.write(f"scenario             : {result.scenario}\n")
    stream.write(f"algorithm            : {Algorithm.label(result.algorithm)}\n")
    stream.write(f"service              : {service}\n")
    stream.write(f"overlay              : {protocol}\n")
    stream.write(f"consistency          : {consistency}\n")
    stream.write(f"peers / replicas     : {result.num_peers} / {result.num_replicas}\n")
    stream.write(f"queries measured     : {result.query_count}\n")
    stream.write(f"avg response time    : {result.avg_response_time_s:.2f} s\n")
    stream.write(f"avg messages / query : {result.avg_messages:.1f}\n")
    stream.write(f"avg replicas probed  : {result.avg_replicas_inspected:.2f}\n")
    stream.write(f"certified current    : {result.currency_rate:.0%}\n")
    stream.write(f"churn events (fails) : {result.churn_events} ({result.failures})\n")
    stream.write(f"fault events fired   : {result.fault_events}\n")
    stream.write(f"updates performed    : {result.updates_performed}\n")


def scenario_list_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run ``scenario list``: every scenario with its description."""
    stream = stream if stream is not None else sys.stdout
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        stream.write(f"{name.ljust(width)}  {SCENARIOS[name].description}\n")
    return 0


def scenario_run_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run ``scenario run``: one point, resolved from flags or replayed from ``--spec``."""
    explicit = {field: getattr(arguments, field) for field, _ in _knobs().values()
                if getattr(arguments, field) is not None}
    if arguments.spec is not None:
        # A recorded spec replays exactly; any knob flag would silently
        # lose, so reject the combination outright.
        if arguments.scenario:
            raise SystemExit("pass either --scenario or --spec, not both")
        if explicit:
            raise SystemExit("--spec replays the recorded parameters "
                             "bit-for-bit; drop the parameter flags "
                             f"({', '.join(sorted(explicit))}) or re-run "
                             "with --scenario to change them")
        with open(arguments.spec, "r", encoding="utf-8") as handle:
            point = RunPoint.from_dict(json.load(handle))
    else:
        point = _resolve_scenario_run(SCENARIOS[arguments.scenario or "uniform"],
                                      explicit)
    if arguments.spec_out is not None:
        with open(arguments.spec_out, "w", encoding="utf-8") as handle:
            json.dump(point.content(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    _write_run_result(run_scenario(point.scenario, point.parameters),
                      as_json=arguments.json,
                      stream=stream if stream is not None else sys.stdout)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse ``argv`` and run the chosen command's handler.

    A flag value the object it configures rejects (``--peers 1``,
    ``serve --max-inflight 0``) is reported as a usage error, exit 2.
    """
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except argparse.ArgumentError as error:
        parser.error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
