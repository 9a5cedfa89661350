"""Command-line interface.

Five entry points are provided (also installable as console scripts, and
reachable as ``python -m repro``):

* ``python -m repro simulate`` — run one simulation of the paper's workload
  (the ``uniform`` scenario: one algorithm, one parameter point) and print
  the measured response time / communication cost;
* ``python -m repro scenario`` — the declarative scenario engine:
  ``list`` the scenarios or ``run`` one (with record/replay via
  ``--spec-out``/``--spec``);
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
:func:`main` only parses and dispatches.  ``simulate`` and ``scenario run``
resolve their parameters and render their results the same way, so
``simulate`` is ``scenario run --scenario uniform`` with its own defaults.

Examples
--------
::

    python -m repro simulate --algorithm ums-direct --peers 2000 --duration 1800
    python -m repro simulate --algorithm brk --peers 500 --replicas 20 --json
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
import dataclasses
import json
import sys
from typing import List, Optional

from repro.api.results import Consistency
from repro.api.services import SERVICES
from repro.dht.registry import OVERLAYS
from repro.experiments import runner as experiments_runner
from repro.simulation.config import Algorithm, SimulationParameters, table1_churn_rate
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec, run_scenario
from repro.simulation.scenarios.registry import UNIFORM_SCENARIO

__all__ = ["build_parser", "main", "registry_command",
           "scenario_list_command", "scenario_run_command", "serve_command",
           "simulate_command"]


def _add_simulation_arguments(command: argparse.ArgumentParser) -> None:
    """Simulation knobs shared by ``simulate`` and ``scenario run``.

    They default to ``None``, "not typed": a scenario spec's overrides and
    the command's own defaults fill them in (see :func:`_resolve_scenario_run`).
    """
    command.add_argument("--peers", type=int, default=None,
                         help="number of peers (Table 1: 10000)")
    command.add_argument("--replicas", type=int, default=None,
                         help="|Hr| (Table 1: 10)")
    command.add_argument("--keys", type=int, default=None,
                         help="number of data items")
    command.add_argument("--duration", type=float, default=None,
                         help="simulated seconds (Table 1: 10800)")
    command.add_argument("--queries", type=int, default=None,
                         help="measured queries per run (paper: 30)")
    command.add_argument("--churn-rate", type=float, default=None,
                         help="departures per second (default: Table 1 "
                              "intensity scaled to the population)")
    command.add_argument("--update-rate", type=float, default=None,
                         help="updates per data item per hour (before the "
                              "scenario profile's multiplier)")
    command.add_argument("--consistency", choices=Consistency.ALL, default=None,
                         help="per-retrieve freshness contract: 'current' is the "
                              "paper's certified retrieval, 'any' a first-replica "
                              "read, 'best-effort' a bounded-probe read")
    command.add_argument("--seed", type=int, default=2007)


def _add_single_run_arguments(command: argparse.ArgumentParser) -> None:
    """``--algorithm``, ``--protocol`` and ``--json`` of ``simulate`` and ``scenario run``."""
    command.add_argument("--algorithm", choices=Algorithm.ALL, default=None,
                         help="currency algorithm (default: ums-direct, unless "
                              "the scenario overrides it)")
    command.add_argument("--protocol", choices=sorted(OVERLAYS), default=None,
                         help="DHT overlay, any name in repro.dht.registry's "
                              "OVERLAYS (default: chord, unless the scenario "
                              "overrides it)")
    command.add_argument("--json", action="store_true", help="print a JSON summary")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Data Currency in Replicated DHTs' (SIGMOD 2007)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one simulation of the paper's workload and report "
                         "response time / messages")
    _add_simulation_arguments(simulate)
    _add_single_run_arguments(simulate)
    simulate.add_argument("--failure-rate", type=float, default=5.0,
                          help="percentage of departures that are failures")
    simulate.add_argument("--cluster", action="store_true",
                          help="use the 64-node-cluster cost model instead of Table 1's WAN")
    simulate.set_defaults(handler=simulate_command, algorithm=Algorithm.UMS_DIRECT,
                          protocol="chord", peers=1000, replicas=10, keys=20,
                          duration=1800.0, queries=30)

    scenario = subparsers.add_parser(
        "scenario", help="declarative workload & fault scenarios (list / run)")
    scenario_subparsers = scenario.add_subparsers(dest="scenario_command",
                                                  required=True)

    scenario_subparsers.add_parser(
        "list", help="list the scenarios with their descriptions"
    ).set_defaults(handler=scenario_list_command)

    run = scenario_subparsers.add_parser(
        "run", help="run one scenario and report its metrics")
    run.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                     help="scenario name (see 'repro scenario list')")
    run.add_argument("--spec", default=None, metavar="FILE",
                     help="replay a run spec recorded with --spec-out "
                          "(mutually exclusive with --scenario and the "
                          "parameter flags)")
    run.add_argument("--spec-out", default=None, metavar="FILE",
                     help="record the resolved scenario + parameters as a "
                          "replayable JSON run spec")
    _add_simulation_arguments(run)
    _add_single_run_arguments(run)
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


#: Default simulation knobs of ``scenario run``, as :class:`SimulationParameters` fields.
_SCENARIO_RUN_DEFAULTS = dict(num_peers=400, num_replicas=10, num_keys=20,
                              duration_s=1800.0, num_queries=40)

#: CLI flag -> :class:`SimulationParameters` field, for the simulation commands.
_FLAG_FIELDS = {
    "peers": "num_peers", "replicas": "num_replicas", "keys": "num_keys",
    "duration": "duration_s", "queries": "num_queries",
    "churn_rate": "churn_rate_per_s", "update_rate": "update_rate_per_hour",
    "consistency": "consistency", "algorithm": "algorithm", "protocol": "protocol",
}


def _explicit_flags(arguments: argparse.Namespace) -> dict:
    """The simulation fields the command line pins, as :class:`SimulationParameters` fields.

    The simulation flags of ``scenario run`` default to ``None``, so a
    non-``None`` value means the user typed it —
    these beat a scenario spec's ``overrides`` (the caller-wins contract of
    :func:`run_scenario`).  ``simulate`` gives its flags parser defaults: the
    ``uniform`` scenario has no overrides for them to beat.
    """
    return {field: getattr(arguments, flag) for flag, field in _FLAG_FIELDS.items()
            if getattr(arguments, flag, None) is not None}


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
        # Table 1's churn intensity, for the *effective* population and duration.
        merged["churn_rate_per_s"] = table1_churn_rate(merged["num_peers"],
                                                       merged["duration_s"])
    return dataclasses.replace(spec, overrides={}), SimulationParameters(**merged)


def _write_run_result(result, *, as_json: bool, stream) -> None:
    """Render one run of ``simulate`` or ``scenario run`` (text or JSON) to ``stream``.

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


def simulate_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run the ``simulate`` sub-command: the ``uniform`` scenario, one point."""
    explicit = dict(_explicit_flags(arguments),
                    failure_rate=arguments.failure_rate / 100.0,
                    cost_model_preset="cluster" if arguments.cluster else "wide-area")
    spec, parameters = _resolve_scenario_run(UNIFORM_SCENARIO, {}, explicit,
                                             arguments.seed)
    _write_run_result(run_scenario(spec, parameters), as_json=arguments.json,
                      stream=stream if stream is not None else sys.stdout)
    return 0


def scenario_list_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run ``scenario list``: every scenario with its description."""
    stream = stream if stream is not None else sys.stdout
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        stream.write(f"{name.ljust(width)}  {SCENARIOS[name].description}\n")
    return 0


def scenario_run_command(arguments: argparse.Namespace, *, stream=None) -> int:
    """Run ``scenario run``: one scenario, resolved from flags or replayed from ``--spec``."""
    explicit = _explicit_flags(arguments)
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
            payload = json.load(handle)
        spec = ScenarioSpec.from_dict(payload["scenario"])
        parameters = SimulationParameters(**payload["parameters"])
    else:
        spec, parameters = _resolve_scenario_run(
            SCENARIOS[arguments.scenario or UNIFORM_SCENARIO.name],
            _SCENARIO_RUN_DEFAULTS, explicit, arguments.seed)
    if arguments.spec_out is not None:
        record = {"scenario": spec.to_dict(), "parameters": parameters.describe()}
        with open(arguments.spec_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _write_run_result(run_scenario(spec, parameters), as_json=arguments.json,
                      stream=stream if stream is not None else sys.stdout)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse ``argv`` and run the chosen command's handler."""
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
