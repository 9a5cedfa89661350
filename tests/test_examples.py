"""Smoke tests: every example script runs to completion."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "batched_operations.py",
    "overlay_selection.py",
    "agenda_sharing.py",
    "cooperative_auction.py",
    "reservation_management.py",
    "failure_and_recovery.py",
    "scenario_whatif.py",
]


def load_example(name):
    """Import ``examples/<name>`` as the module ``example_<stem>``.

    The module is registered in ``sys.modules`` before it runs, as
    ``dataclass`` needs to resolve the annotations of the classes it defines.
    """
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs_to_completion(name, capsys):
    module = load_example(name)
    module.main()
    output = capsys.readouterr().out
    assert output.strip(), f"example {name} produced no output"


def test_examples_directory_contains_the_documented_scripts():
    present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert set(FAST_EXAMPLES) <= present
    assert "scalability_study.py" in present


def test_scalability_study_exposes_a_main_function():
    module = load_example("scalability_study.py")
    assert callable(module.main)
