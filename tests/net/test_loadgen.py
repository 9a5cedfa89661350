"""Tests of the load harness (repro.net.loadgen) and the backend registry."""

from __future__ import annotations

import json
import random

import pytest

from repro.net import backends
from repro.net.client import RemoteCluster
from repro.net.loadgen import (
    LoadSpec,
    _build_schedule,
    artifact_path,
    percentile,
    run_load,
    summarize_latencies,
    write_report,
)
from repro.net.server import NodeServer


class TestPercentiles:
    def test_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0

    def test_linear_interpolation_between_ranks(self):
        assert percentile([10.0, 20.0], 0.25) == pytest.approx(12.5)
        assert percentile([0.0, 100.0], 0.99) == pytest.approx(99.0)

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_and_out_of_range_are_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0], 1.5)

    def test_summary_has_every_field(self):
        summary = summarize_latencies([3.0, 1.0, 2.0])
        assert set(summary) == {"p50", "p95", "p99", "mean", "min", "max"}
        assert summary["p50"] == 2.0
        assert summary["min"] == 1.0 and summary["max"] == 3.0

    def test_empty_summary_is_all_zero(self):
        assert all(value == 0.0
                   for value in summarize_latencies([]).values())


class TestLoadSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="ops"):
            LoadSpec(ops=0)
        with pytest.raises(ValueError, match="duration"):
            LoadSpec(duration_s=0)
        with pytest.raises(ValueError, match="read_fraction"):
            LoadSpec(read_fraction=1.5)
        with pytest.raises(ValueError, match="arrival model"):
            LoadSpec(arrival={"model": "tsunami"})

    def test_spec_hash_is_stable_and_content_sensitive(self):
        assert LoadSpec().spec_hash == LoadSpec().spec_hash
        assert LoadSpec().spec_hash != LoadSpec(seed=1).spec_hash

    def test_artifact_name_encodes_arrival_backend_and_hash(self, tmp_path):
        spec = LoadSpec(arrival={"model": "flash-crowd"})
        path = artifact_path(tmp_path, spec, "tcp")
        assert path.parent == tmp_path
        assert path.name == f"loadgen-flash-crowd-tcp-{spec.spec_hash[:12]}.json"

    def test_schedule_is_deterministic_and_batches_on_cadence(self):
        spec = LoadSpec(ops=30, batch_every=10, batch_size=3, seed=7)
        first = _build_schedule(spec, random.Random(spec.seed))
        second = _build_schedule(spec, random.Random(spec.seed))
        assert first == second
        batched = [index for index, (op, _payload) in enumerate(first)
                   if op.endswith("_many")]
        assert batched == [9, 19, 29]


class TestRunLoad:
    def test_sim_backend_run_and_report(self, tmp_path):
        cluster = backends.build_backend("sim", peers=16, replicas=4, seed=9)
        spec = LoadSpec(ops=40, duration_s=0.2, read_fraction=0.5, seed=9)
        report = run_load(cluster, spec, backend="sim", paced=False)
        assert report.operations == report.requests
        assert report.errors == 0
        assert report.transport is None  # no socket underneath
        assert report.throughput_ops_per_s > 0
        payload = report.to_dict()
        assert payload["latency_ms"]["p50"] <= payload["latency_ms"]["p99"]
        path = write_report(report, tmp_path / "report.json")
        written = json.loads(path.read_text())
        assert written["spec_hash"] == spec.spec_hash
        assert written["backend"] == "sim"
        assert set(written["latency_ms"]) == \
            {"p50", "p95", "p99", "mean", "min", "max"}

    def test_tcp_backend_records_transport_counters(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=9))
        host, port = server.tcp_address
        cluster = backends.build_backend("tcp", address=f"{host}:{port}")
        try:
            spec = LoadSpec(ops=25, duration_s=0.2, seed=9)
            report = run_load(cluster, spec, backend="tcp", paced=False)
        finally:
            cluster.close()
        assert report.errors == 0
        assert report.transport is not None
        # Per-run deltas: one request per scheduled operation, the connect
        # handshake (issued before the run) excluded.
        assert report.transport["requests"] == report.requests
        assert report.transport["bytes_sent"] > 0
        assert report.transport["bytes_per_op"] > 0
        assert "wire_format" not in report.transport

    def test_paced_run_respects_the_arrival_window(self):
        cluster = backends.build_backend("sim", peers=12, replicas=3, seed=9)
        spec = LoadSpec(ops=10, duration_s=0.3,
                        arrival={"model": "uniform"}, seed=9)
        report = run_load(cluster, spec, backend="sim", paced=True)
        # Open-loop pacing stretches the run across (most of) the window.
        assert report.elapsed_s >= 0.2


class TestBackendRegistry:
    def test_builtins_are_registered(self):
        assert backends.backend_names() == ("sim", "tcp", "uds")
        for name in backends.backend_names():
            assert backends.is_backend_registered(name)

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backends.build_backend("quantum")

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register_backend("sim", lambda **_: None)

    def test_custom_backend_round_trip(self):
        try:
            backends.register_backend("probe", lambda **options: options)
            assert backends.build_backend("probe", x=1) == {"x": 1}
        finally:
            backends._BACKENDS.pop("probe", None)

    def test_parse_tcp_address(self):
        assert backends.parse_tcp_address("127.0.0.1:9207") == \
            ("127.0.0.1", 9207)
        assert backends.parse_tcp_address(("localhost", 1)) == ("localhost", 1)
        with pytest.raises(ValueError, match="host:port"):
            backends.parse_tcp_address("no-port")

    def test_uds_backend_builds_a_remote_cluster(self, serve, tmp_path):
        path = str(tmp_path / "node.sock")
        serve(NodeServer(peers=12, replicas=3, seed=9), host=None, uds=path)
        cluster = backends.build_backend("uds", address=path)
        try:
            assert isinstance(cluster, RemoteCluster)
            assert cluster.ping()
        finally:
            cluster.close()
