"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro import cli
from repro.api.results import Consistency
from repro.api.services import SERVICES
from repro.dht.registry import OVERLAYS
from repro.net.client import connect
from repro.simulation.scenarios import SCENARIOS


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
        from repro.dht.registry import OVERLAYS
        for protocol in sorted(OVERLAYS):
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
        from repro.simulation.scenarios import SCENARIOS
        stream = io.StringIO()
        exit_code = cli.scenario_list_command(
            cli.build_parser().parse_args(["scenario", "list"]), stream=stream)
        output = stream.getvalue()
        assert exit_code == 0
        listed = [line.split()[0] for line in output.splitlines() if line.strip()]
        assert len(listed) >= 6
        assert set(listed) == set(SCENARIOS)

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
        from repro.simulation.scenarios import ScenarioSpec
        SCENARIOS["pinned-queries"] = ScenarioSpec(
            name="pinned-queries", overrides={"num_queries": 3, "protocol": "kademlia"})
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
            del SCENARIOS["pinned-queries"]

    def test_main_dispatches_to_scenario(self, capsys):
        exit_code = cli.main(["scenario", "list"])
        assert exit_code == 0
        assert "hotspot" in capsys.readouterr().out

    def test_registry_lists_scenarios(self):
        stream = io.StringIO()
        cli.registry_command(cli.build_parser().parse_args(["registry"]),
                             stream=stream)
        assert stream.getvalue().splitlines() == [
            f"overlays (repro.dht.registry)                   : {', '.join(sorted(OVERLAYS))}",
            f"services (repro.api.services)                   : {', '.join(sorted(SERVICES))}",
            f"consistency levels (repro.api.results)          : {', '.join(Consistency.ALL)}",
            f"scenarios (repro.simulation.scenarios.registry) : {', '.join(sorted(SCENARIOS))}",
        ]


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


class _BannerStream(io.StringIO):
    """A stream that flags once ``serve`` has printed its banner."""

    def __init__(self):
        super().__init__()
        self.ready = threading.Event()

    def write(self, text):
        count = super().write(text)
        if text.startswith("serving "):
            self.ready.set()
        return count


def start_serve(argv):
    """Run ``repro serve argv`` on a thread; return its stream, thread, outcome.

    Returns once the banner is printed (or the command failed), so every
    listener it names is bound.
    """
    stream = _BannerStream()
    outcome = {}
    arguments = cli.build_parser().parse_args(["serve", *argv])

    def _run():
        try:
            outcome["exit"] = cli.serve_command(arguments, stream=stream)
        except BaseException as error:  # noqa: B902 - reported to the test
            outcome["error"] = error
        finally:
            stream.ready.set()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert stream.ready.wait(30), "serve printed no banner"
    assert "error" not in outcome, outcome
    return stream, thread, outcome


def tcp_address(text):
    host, port = re.search(r"listening on tcp://(\S+):(\d+)", text).groups()
    return host, int(port)


def drive(cluster, ops):
    """``ops`` single writes and reads through one session over ``cluster``."""
    with cluster.session() as session:
        for index in range(ops):
            key = f"k{index // 2 % 4}"
            if index % 2:
                assert session.retrieve(key).found
            else:
                session.insert(key, {"op": index})


def stop_serve(cluster, thread, outcome, stream):
    """Shut the served cluster down from ``cluster``; the command's last line."""
    cluster.shutdown_server()
    cluster.close()
    thread.join(30)
    assert not thread.is_alive()
    assert outcome == {"exit": 0}, outcome
    return stream.getvalue().splitlines()[-1]


def serve_subprocess(*argv):
    """``python -m repro serve --port 0 argv`` with the banner read; the process."""
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    banner = []
    for line in process.stdout:
        banner.append(line)
        if line.startswith("serving "):
            break
    else:  # pragma: no cover - the process died before its banner
        process.kill()
        _out, err = process.communicate(timeout=30)
        pytest.fail(f"serve exited without a banner: {err}")
    return process, "".join(banner)


class TestServeCommand:
    def test_serve_parser_defaults(self):
        arguments = cli.build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.port == 9207
        assert arguments.max_inflight == 32
        assert not arguments.no_tcp

    def test_serve_rejects_an_unknown_service_as_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["serve", "--service", "paxos", "--port", "0"])
        assert exited.value.code == 2
        assert "invalid choice: 'paxos'" in capsys.readouterr().err

    def test_serve_without_listeners_is_rejected(self):
        arguments = cli.build_parser().parse_args(["serve", "--no-tcp"])
        with pytest.raises(SystemExit, match="--uds"):
            cli.serve_command(arguments, stream=io.StringIO())

    @pytest.mark.parametrize("protocol", sorted(OVERLAYS))
    def test_serve_hosts_a_cluster_until_a_client_shuts_it_down(self,
                                                                 protocol):
        stream, thread, outcome = start_serve(
            ["--port", "0", "--peers", "16", "--replicas", "4",
             "--protocol", protocol, "--seed", "5"])
        banner = stream.getvalue()
        assert f"serving 16 peers ({protocol}, service=ums, seed=5)" in banner
        cluster = connect(tcp_address(banner))
        assert cluster.size == 16 and cluster.info["replicas"] == 4
        drive(cluster, 20)
        # The handshake, twenty operations and the shutdown request.
        assert stop_serve(cluster, thread, outcome, stream) == \
            "stopped after 22 requests"

    def test_serve_on_a_unix_socket_only(self, tmp_path):
        path = str(tmp_path / "node.sock")
        stream, thread, outcome = start_serve(
            ["--no-tcp", "--uds", path, "--peers", "16", "--replicas", "4"])
        banner = stream.getvalue()
        assert "tcp://" not in banner
        assert f"listening on uds://{path}" in banner
        cluster = connect(path)
        drive(cluster, 6)
        assert stop_serve(cluster, thread, outcome, stream) == \
            "stopped after 8 requests"

    def test_serve_on_tcp_and_a_unix_socket_is_one_cluster(self, tmp_path):
        path = str(tmp_path / "node.sock")
        stream, thread, outcome = start_serve(
            ["--port", "0", "--uds", path, "--peers", "16", "--replicas", "4"])
        banner = stream.getvalue()
        over_tcp = connect(tcp_address(banner))
        over_uds = connect(path)
        try:
            with over_tcp.session() as session:
                written = session.insert("shared", {"via": "tcp"})
            with over_uds.session() as session:
                read = session.retrieve("shared")
        finally:
            over_uds.close()
        assert read.found and read.data == {"via": "tcp"}
        assert read.timestamp == written.timestamp
        # Two handshakes, one write, one read and the shutdown request.
        assert stop_serve(over_tcp, thread, outcome, stream) == \
            "stopped after 5 requests"

    def test_serve_hosts_the_named_service(self):
        stream, thread, outcome = start_serve(
            ["--port", "0", "--peers", "16", "--replicas", "4",
             "--service", "brk"])
        banner = stream.getvalue()
        assert "service=brk" in banner
        cluster = connect(tcp_address(banner))
        assert cluster.service_name == "brk"
        drive(cluster, 4)
        assert stop_serve(cluster, thread, outcome, stream) == \
            "stopped after 6 requests"

    def test_serve_on_a_port_in_use_fails_at_startup(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            arguments = cli.build_parser().parse_args(
                ["serve", "--port", str(taken.getsockname()[1]),
                 "--peers", "8", "--replicas", "3"])
            stream = io.StringIO()
            with pytest.raises(OSError):
                cli.serve_command(arguments, stream=stream)
        assert "listening" not in stream.getvalue()

    def test_serve_as_a_process_exits_zero_after_a_client_shutdown(self):
        process, banner = serve_subprocess("--peers", "16", "--replicas", "4")
        try:
            cluster = connect(tcp_address(banner))
            drive(cluster, 10)
            cluster.shutdown_server()
            cluster.close()
            out, err = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - a failed test
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert out.splitlines()[-1] == "stopped after 12 requests"

    def test_serve_as_a_process_stops_gracefully_on_sigterm(self):
        process, banner = serve_subprocess("--peers", "16", "--replicas", "4")
        try:
            with connect(tcp_address(banner)) as cluster:
                assert cluster.ping()
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - a failed test
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        # The handshake and the ping.
        assert out.splitlines()[-1] == "stopped after 2 requests"
