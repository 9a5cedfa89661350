"""Tests of the package's public surface: exports, error hierarchy, metadata."""

from __future__ import annotations

import repro
from repro.core import errors as core_errors
from repro.dht import errors as dht_errors


class TestTopLevelExports:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.12.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_all_names_resolve(self):
        import repro.core as core
        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_dht_all_names_resolve(self):
        import repro.dht as dht
        for name in dht.__all__:
            assert getattr(dht, name) is not None

    def test_simulation_and_execution_all_names_resolve(self):
        import repro.execution as execution
        import repro.simulation as simulation
        for module in (execution, simulation):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_experiments_and_apps_all_names_resolve(self):
        import repro.apps as apps
        import repro.experiments as experiments
        for module in (apps, experiments):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_main_entry_points_are_importable(self):
        from repro.cli import main as cli_main
        from repro.experiments.runner import main as runner_main
        assert callable(cli_main) and callable(runner_main)


class TestErrorHierarchy:
    def test_dht_errors_share_a_base_class(self):
        for exception_type in (dht_errors.EmptyNetworkError, dht_errors.NoSuchPeerError,
                               dht_errors.PeerUnreachableError,
                               dht_errors.NodeAlreadyPresentError,
                               dht_errors.InvalidConfigurationError):
            assert issubclass(exception_type, dht_errors.DHTError)

    def test_service_errors_share_a_base_class(self):
        for exception_type in (core_errors.IncomparableTimestampsError,
                               core_errors.NoReplicaFoundError,
                               core_errors.ReplicationConfigurationError):
            assert issubclass(exception_type, core_errors.ServiceError)

    def test_error_messages_identify_the_offender(self):
        assert "42" in str(dht_errors.NoSuchPeerError(42))
        assert "42" in str(dht_errors.PeerUnreachableError(42))
        assert "42" in str(dht_errors.NodeAlreadyPresentError(42))
        assert "key" in str(core_errors.NoReplicaFoundError("key"))
        message = str(core_errors.IncomparableTimestampsError("a", "b"))
        assert "'a'" in message and "'b'" in message

    def test_errors_carry_structured_attributes(self):
        assert dht_errors.NoSuchPeerError(7).peer_id == 7
        assert core_errors.NoReplicaFoundError("k").key == "k"
        error = core_errors.IncomparableTimestampsError("a", "b")
        assert (error.first_key, error.second_key) == ("a", "b")


class TestDocumentationArtifacts:
    def test_design_and_experiments_docs_exist(self):
        import pathlib
        root = pathlib.Path(repro.__file__).resolve().parents[2]
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = root / name
            assert path.exists(), f"{name} is missing"
            assert path.stat().st_size > 500

    def test_public_modules_have_docstrings(self):
        import importlib
        modules = [
            "repro", "repro.cli", "repro.core", "repro.core.kts", "repro.core.ums",
            "repro.core.baseline", "repro.core.analysis", "repro.core.audit",
            "repro.dht", "repro.dht.chord", "repro.dht.can", "repro.dht.network",
            "repro.simulation.engine", "repro.simulation.cost", "repro.simulation.harness",
            "repro.execution", "repro.execution.plan", "repro.execution.executor",
            "repro.execution.cache",
            "repro.experiments.figures", "repro.apps.agenda",
        ]
        for name in modules:
            module = importlib.import_module(name)
            assert module.__doc__ and len(module.__doc__.strip()) > 20, name
