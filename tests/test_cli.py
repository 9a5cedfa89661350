"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro import cli


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_simulate_defaults(self):
        arguments = cli.build_parser().parse_args(["simulate"])
        assert arguments.command == "simulate"
        assert arguments.algorithm == "ums-direct"
        assert arguments.peers == 1000
        assert arguments.failure_rate == 5.0

    def test_simulate_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--algorithm", "paxos"])

    def test_simulate_accepts_every_registered_overlay(self):
        from repro.dht.registry import overlay_names
        for protocol in overlay_names():
            arguments = cli.build_parser().parse_args(
                ["simulate", "--protocol", protocol])
            assert arguments.protocol == protocol

    def test_simulate_rejects_unknown_overlay(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--protocol", "pastry"])

    def test_experiments_defaults(self):
        arguments = cli.build_parser().parse_args(["experiments"])
        assert arguments.scale == "quick"
        assert arguments.output is None


class TestSimulateCommand:
    def _args(self, *extra):
        base = ["simulate", "--peers", "80", "--keys", "5", "--duration", "300",
                "--queries", "6", "--seed", "11"]
        return cli.build_parser().parse_args(base + list(extra))

    def test_text_output_contains_the_metrics(self):
        stream = io.StringIO()
        exit_code = cli.simulate_command(self._args(), stream=stream)
        output = stream.getvalue()
        assert exit_code == 0
        assert "avg response time" in output
        assert "UMS-Direct" in output
        assert "queries measured     : 6" in output

    def test_json_output_is_parseable(self):
        stream = io.StringIO()
        cli.simulate_command(self._args("--json", "--algorithm", "brk"), stream=stream)
        payload = json.loads(stream.getvalue())
        assert payload["algorithm"] == "brk"
        assert payload["protocol"] == "chord"
        assert payload["num_peers"] == 80
        assert payload["queries"] == 6.0
        assert payload["avg_response_time_s"] > 0.0

    def test_simulate_runs_over_kademlia(self):
        stream = io.StringIO()
        exit_code = cli.simulate_command(
            self._args("--json", "--protocol", "kademlia"), stream=stream)
        payload = json.loads(stream.getvalue())
        assert exit_code == 0
        assert payload["protocol"] == "kademlia"
        assert payload["avg_response_time_s"] > 0.0
        assert payload["avg_messages"] > 0.0

    def test_cluster_flag_switches_cost_model(self):
        stream_wan = io.StringIO()
        stream_lan = io.StringIO()
        cli.simulate_command(self._args("--json"), stream=stream_wan)
        cli.simulate_command(self._args("--json", "--cluster"), stream=stream_lan)
        wan = json.loads(stream_wan.getvalue())
        lan = json.loads(stream_lan.getvalue())
        assert lan["avg_response_time_s"] < wan["avg_response_time_s"]

    def test_explicit_churn_rate_is_used(self):
        stream = io.StringIO()
        cli.simulate_command(self._args("--json", "--churn-rate", "0.0"), stream=stream)
        payload = json.loads(stream.getvalue())
        assert payload["churn_events"] == 0.0

    def test_main_dispatches_to_simulate(self, capsys):
        exit_code = cli.main(["simulate", "--peers", "60", "--keys", "4",
                              "--duration", "200", "--queries", "4", "--seed", "3"])
        assert exit_code == 0
        assert "avg response time" in capsys.readouterr().out

    @pytest.mark.parametrize("churn", ([], ["--churn-rate", "0.05"]))
    def test_simulate_is_the_uniform_scenario_run(self, churn):
        knobs = ["--peers", "80", "--keys", "5", "--duration", "300",
                 "--queries", "6", "--replicas", "10", "--seed", "1", *churn,
                 "--json"]
        simulated, scenario = io.StringIO(), io.StringIO()
        cli.simulate_command(cli.build_parser().parse_args(["simulate", *knobs]),
                             stream=simulated)
        cli.scenario_run_command(cli.build_parser().parse_args(
            ["scenario", "run", "--scenario", "uniform", *knobs]), stream=scenario)
        assert json.loads(simulated.getvalue()) == json.loads(scenario.getvalue())
        payload = json.loads(simulated.getvalue())
        assert payload["scenario"] == "uniform"
        assert payload["service"] == "ums"


class TestScenarioCommand:
    def _run_args(self, *extra):
        base = ["scenario", "run", "--peers", "80", "--keys", "5",
                "--duration", "300", "--queries", "6", "--seed", "11"]
        return cli.build_parser().parse_args(base + list(extra))

    def test_list_shows_at_least_six_registered_scenarios(self):
        from repro.simulation.scenarios import scenario_names
        stream = io.StringIO()
        exit_code = cli.scenario_list_command(
            cli.build_parser().parse_args(["scenario", "list"]), stream=stream)
        output = stream.getvalue()
        assert exit_code == 0
        listed = [line.split()[0] for line in output.splitlines() if line.strip()]
        assert len(listed) >= 6
        assert set(listed) == set(scenario_names())

    def test_run_reports_the_scenario_metrics(self):
        stream = io.StringIO()
        exit_code = cli.scenario_run_command(
            self._run_args("--scenario", "hotspot"), stream=stream)
        output = stream.getvalue()
        assert exit_code == 0
        assert "scenario             : hotspot" in output
        assert "avg response time" in output
        assert "queries measured     : 6" in output

    def test_run_json_is_parseable_and_tagged(self):
        stream = io.StringIO()
        cli.scenario_run_command(self._run_args("--scenario", "flashcrowd",
                                                "--protocol", "kademlia", "--json"),
                                 stream=stream)
        payload = json.loads(stream.getvalue())
        assert payload["scenario"] == "flashcrowd"
        assert payload["protocol"] == "kademlia"
        assert payload["avg_response_time_s"] > 0.0

    def test_run_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["scenario", "run", "--scenario",
                                           "black-friday"])

    def test_seeded_run_spec_replay_round_trip_is_identical(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        recorded = io.StringIO()
        cli.scenario_run_command(self._run_args("--scenario", "correlated-failures",
                                                "--json", "--spec-out",
                                                str(spec_file)), stream=recorded)
        replayed = io.StringIO()
        cli.scenario_run_command(
            cli.build_parser().parse_args(["scenario", "run", "--spec",
                                           str(spec_file), "--json"]),
            stream=replayed)
        assert recorded.getvalue() == replayed.getvalue()
        payload = json.loads(spec_file.read_text())
        assert payload["scenario"]["name"] == "correlated-failures"
        assert payload["parameters"]["seed"] == 11

    def test_run_rejects_scenario_and_spec_together(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}")
        with pytest.raises(SystemExit):
            cli.scenario_run_command(cli.build_parser().parse_args(
                ["scenario", "run", "--scenario", "hotspot",
                 "--spec", str(spec_file)]))

    def test_run_rejects_parameter_flags_alongside_spec(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}")
        with pytest.raises(SystemExit, match="replays the recorded parameters"):
            cli.scenario_run_command(cli.build_parser().parse_args(
                ["scenario", "run", "--spec", str(spec_file),
                 "--peers", "999"]))

    def test_explicit_flags_beat_scenario_spec_overrides(self):
        from repro.simulation.scenarios import (ScenarioSpec, register_scenario,
                                                unregister_scenario)
        register_scenario(ScenarioSpec(name="pinned-queries",
                                       overrides={"num_queries": 3,
                                                  "protocol": "kademlia"}))
        try:
            # Without the corresponding flags the spec's overrides apply...
            stream = io.StringIO()
            cli.scenario_run_command(cli.build_parser().parse_args(
                ["scenario", "run", "--scenario", "pinned-queries",
                 "--peers", "80", "--keys", "5", "--duration", "300",
                 "--seed", "11", "--json"]), stream=stream)
            pinned = json.loads(stream.getvalue())
            assert pinned["queries"] == 3.0
            assert pinned["protocol"] == "kademlia"
            # ...but an explicitly typed flag must win over them.
            stream = io.StringIO()
            cli.scenario_run_command(self._run_args("--scenario", "pinned-queries",
                                                    "--protocol", "chord", "--json"),
                                     stream=stream)
            overridden = json.loads(stream.getvalue())
            assert overridden["queries"] == 6.0  # --queries 6 from _run_args
            assert overridden["protocol"] == "chord"
        finally:
            unregister_scenario("pinned-queries")

    def test_main_dispatches_to_scenario(self, capsys):
        exit_code = cli.main(["scenario", "list"])
        assert exit_code == 0
        assert "hotspot" in capsys.readouterr().out

    def test_registry_lists_scenarios(self):
        stream = io.StringIO()
        cli.registry_command(cli.build_parser().parse_args(["registry"]),
                             stream=stream)
        assert "scenarios" in stream.getvalue()


class TestExperimentsCommand:
    def test_main_dispatches_to_experiments_runner(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        exit_code = cli.main(["experiments", "--scale", "tiny", "--only", "figure",
                              "--output", str(output), "--seed", "5"])
        assert exit_code == 0
        content = output.read_text()
        assert "figure-7" in content
        assert "table-1" in content

    def test_experiments_jobs_and_cache_reproduce_the_serial_report(self, tmp_path):
        def report(*extra) -> str:
            output = tmp_path / "report.md"
            assert cli.main(["experiments", "--scale", "tiny", "--only", "figure",
                             "--output", str(output), "--seed", "5",
                             *extra]) == 0
            # Strip the wall-clock line: it differs between invocations.
            return "\n".join(line for line in output.read_text().splitlines()
                             if not line.startswith("Total wall-clock"))

        serial = report()
        cache = tmp_path / "cache"
        parallel = report("--jobs", "2", "--cache-dir", str(cache))
        assert parallel == serial
        assert len(list(cache.glob("*.json"))) > 0
        cached = report("--cache-dir", str(cache))
        assert cached == serial

    @pytest.mark.parametrize("only, message", [("attack-of-the-clones", "names no experiment"),
                                               (",", "at least one id")])
    def test_experiments_only_rejects_what_names_no_experiment(self, only, message, capsys):
        with pytest.raises(SystemExit):
            cli.main(["experiments", "--only", only])
        assert message in capsys.readouterr().err

    def test_experiments_only_scenario_compare_emits_one_table_per_metric(self, tmp_path):
        output = tmp_path / "report.md"
        assert cli.main(["experiments", "--scale", "tiny", "--only", "scenario-compare",
                         "--output", str(output)]) == 0
        content = output.read_text()
        for metric in ("currency-rate", "avg-response-time-s", "avg-messages"):
            assert f"### scenario-compare-{metric}:" in content
        for series in ("ums@chord", "ums@kademlia", "brk@chord", "brk@kademlia"):
            assert series in content
        assert "| hotspot |" in content and "| lossy-network |" in content
        assert "figure-7" not in content and "table-1" in content

    def test_experiments_takes_the_runner_flags(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert cli.main(["experiments", "--scale", "tiny", "--only", "figure",
                         "--charts", "--progress", "--output", str(output),
                         "--seed", "5"]) == 0
        assert "```" in output.read_text()
        assert "[1/" in capsys.readouterr().err


class TestServeAndLoadgenCommands:
    def test_serve_parser_defaults(self):
        arguments = cli.build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.port == 9207
        assert arguments.max_inflight == 32
        assert not arguments.no_tcp

    def test_serve_without_listeners_is_rejected(self):
        arguments = cli.build_parser().parse_args(["serve", "--no-tcp"])
        with pytest.raises(SystemExit, match="--uds"):
            cli.serve_command(arguments, stream=io.StringIO())

    def test_loadgen_parser_defaults(self):
        arguments = cli.build_parser().parse_args(["loadgen"])
        assert arguments.backend == "sim"
        assert arguments.arrival == "poisson"
        assert arguments.ops == 200

    def test_loadgen_net_backend_requires_an_address(self):
        arguments = cli.build_parser().parse_args(
            ["loadgen", "--backend", "tcp"])
        with pytest.raises(SystemExit, match="--address"):
            cli.loadgen_command(arguments, stream=io.StringIO())

    def test_loadgen_rejects_unknown_backend_and_arrival(self):
        arguments = cli.build_parser().parse_args(
            ["loadgen", "--backend", "carrier-pigeon"])
        with pytest.raises(SystemExit, match="unknown backend"):
            cli.loadgen_command(arguments, stream=io.StringIO())
        arguments = cli.build_parser().parse_args(
            ["loadgen", "--arrival", "tsunami"])
        with pytest.raises(SystemExit, match="arrival model"):
            cli.loadgen_command(arguments, stream=io.StringIO())

    def test_loadgen_sim_writes_the_percentile_artifact(self, tmp_path):
        output = tmp_path / "load.json"
        stream = io.StringIO()
        arguments = cli.build_parser().parse_args(
            ["loadgen", "--ops", "30", "--duration", "0.2", "--peers", "16",
             "--no-pacing", "--output", str(output)])
        assert cli.loadgen_command(arguments, stream=stream) == 0
        text = stream.getvalue()
        assert "throughput" in text and "p50/p95/p99" in text
        payload = json.loads(output.read_text())
        assert payload["backend"] == "sim"
        assert payload["operations"] == 30
        assert {"p50", "p95", "p99"} <= set(payload["latency_ms"])

    def test_loadgen_json_output_matches_the_artifact(self, tmp_path, capsys):
        output = tmp_path / "load.json"
        exit_code = cli.main(
            ["loadgen", "--ops", "20", "--duration", "0.2", "--peers", "12",
             "--no-pacing", "--json", "--output", str(output)])
        assert exit_code == 0
        stdout = capsys.readouterr().out
        printed = json.loads(stdout[:stdout.rindex("}") + 1])
        assert printed == json.loads(output.read_text())

    def test_loadgen_drives_a_served_cluster_end_to_end(self, tmp_path):
        from repro.net.server import NodeServer, ServerThread

        output = tmp_path / "load.json"
        with ServerThread(NodeServer(peers=16, replicas=4, seed=9)) as thread:
            host, port = thread.server.tcp_address
            arguments = cli.build_parser().parse_args(
                ["loadgen", "--backend", "tcp", "--address", f"{host}:{port}",
                 "--ops", "20", "--duration", "0.2", "--no-pacing",
                 "--output", str(output), "--shutdown"])
            assert cli.loadgen_command(arguments, stream=io.StringIO()) == 0
            # --shutdown stopped the server gracefully.
            thread.server.cluster  # still usable in-process
        payload = json.loads(output.read_text())
        assert payload["backend"] == "tcp"
        # Per-run deltas: one request per scheduled op; the connect-time
        # handshake (issued before the run) is not part of the run's count.
        assert payload["transport"]["requests"] == 20

    def test_loadgen_has_one_wire_format_and_no_sync_round_by_default(self):
        arguments = cli.build_parser().parse_args(["loadgen"])
        assert arguments.sync_round is False
        assert not hasattr(arguments, "wire_format")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["loadgen", "--wire-format", "binary"])

    def test_loadgen_with_a_sync_round(self, tmp_path):
        from repro.net.server import NodeServer, ServerThread

        output = tmp_path / "load.json"
        stream = io.StringIO()
        with ServerThread(NodeServer(peers=16, replicas=4, seed=9)) as thread:
            host, port = thread.server.tcp_address
            arguments = cli.build_parser().parse_args(
                ["loadgen", "--backend", "tcp", "--address", f"{host}:{port}",
                 "--ops", "20", "--duration", "0.2", "--no-pacing",
                 "--sync-round", "--output", str(output), "--shutdown"])
            assert cli.loadgen_command(arguments, stream=stream) == 0
        text = stream.getvalue()
        assert "bytes per op" in text and "delta sync" in text
        payload = json.loads(output.read_text())
        assert payload["transport"]["bytes_per_op"] > 0
        assert payload["sync"]["entries_shipped"] == 0  # loadgen writes converge
        assert payload["sync"]["transfer_ratio"] < 1.0
