"""The typed islands stay clean under ``mypy --strict``.

:data:`STRICT_TARGETS` is the one list of typed islands: CI's
``static-analysis`` job runs ``mypy --strict`` on exactly these targets and
``pyproject.toml`` holds each of them to ``ignore_errors = false`` (both
checked below).  The mypy run itself is skipped when mypy is not installed
(the repo itself is stdlib-only).
"""

import re
import subprocess
import sys

import pytest

STRICT_TARGETS = ["-p", "repro.api", "-p", "repro.execution",
                  "-m", "repro.dht.model", "-m", "repro.dht.messages",
                  "-m", "repro.dht.kademlia", "-m", "repro.dht.registry",
                  "-m", "repro.net.codec", "-m", "repro.net.wire",
                  "-m", "repro.simulation.engine"]


def test_typed_islands_pass_mypy_strict(repo_root):
    pytest.importorskip("mypy")
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *STRICT_TARGETS],
        cwd=repo_root, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_ci_checks_exactly_the_strict_targets(repo_root):
    workflow = (repo_root / ".github" / "workflows" / "ci.yml").read_text()
    # The command runs to the first line end not escaped by a backslash.
    (arguments,) = re.findall(r"python -m mypy --strict(.*?)(?<!\\)\n", workflow,
                              flags=re.DOTALL)
    assert arguments.replace("\\\n", " ").split() == STRICT_TARGETS


def test_pyproject_holds_every_strict_target_to_its_errors(repo_root):
    pyproject = (repo_root / "pyproject.toml").read_text()
    for flag, target in zip(STRICT_TARGETS[::2], STRICT_TARGETS[1::2]):
        assert f'"{target}",' in pyproject
        if flag == "-p":
            assert f'"{target}.*",' in pyproject


def test_py_typed_marker_ships(repo_root):
    assert (repo_root / "src" / "repro" / "py.typed").exists()
