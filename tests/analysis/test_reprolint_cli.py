"""End-to-end CLI runs: exit codes, JSON report shape, --list-rules."""

import json
import subprocess
import sys
import textwrap

import pytest

from tools.reprolint import all_rules


def run_reprolint(args, cwd):
    return subprocess.run([sys.executable, "-m", "tools.reprolint", *args],
                          cwd=cwd, capture_output=True, text=True)


def write_fixture_tree(tmp_path, source):
    """A minimal ``repro``-shaped tree holding one (documented) module."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text(
        '"""Fixture package."""\n', encoding="utf-8")
    (package / "__init__.py").write_text(
        '"""Fixture subpackage."""\n', encoding="utf-8")
    (package / "fixture.py").write_text(textwrap.dedent(source),
                                        encoding="utf-8")
    return tmp_path / "repro"


def test_src_tree_is_clean(repo_root):
    completed = run_reprolint(["src"], cwd=repo_root)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 finding(s)" in completed.stdout


def test_bad_fixture_tree_fails(repo_root, tmp_path):
    tree = write_fixture_tree(tmp_path, '''
    """Fixture module with a wall-clock read."""

    import time


    def stamp():
        """Documented, but reads the host clock."""
        return time.time()
    ''')
    completed = run_reprolint([str(tree)], cwd=repo_root)
    assert completed.returncode == 1, completed.stdout + completed.stderr
    assert "REP001" in completed.stdout


def test_json_report_shape(repo_root, tmp_path):
    tree = write_fixture_tree(tmp_path, '''
    """Fixture module with an unseeded RNG."""

    import random


    def make_rng():
        """Documented, but ambient."""
        return random.Random()
    ''')
    out_file = tmp_path / "reprolint.json"
    completed = run_reprolint(
        [str(tree), "--format", "json", "--output", str(out_file)],
        cwd=repo_root)
    assert completed.returncode == 1
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["tool"] == "reprolint"
    assert report["ok"] is False
    assert any(finding["rule"] == "REP002" for finding in report["findings"])
    rule_ids = [entry["id"] for entry in report["rules"]]
    assert rule_ids == [rule.id for rule in all_rules()]
    assert report["docstring_coverage"]["total"] >= 1


def test_json_report_counts_suppressions_on_src(repo_root, tmp_path):
    out_file = tmp_path / "src-report.json"
    completed = run_reprolint(
        ["src", "--format", "json", "--output", str(out_file)],
        cwd=repo_root)
    assert completed.returncode == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["ok"] is True
    assert report["findings"] == []
    assert 0 < report["line_budget"]["lines"] <= report["line_budget"]["budget"]
    # The real tree carries documented pragma suppressions (client deadlines,
    # convenience RNG defaults, shared result types); each carries a reason.
    assert len(report["suppressed"]) >= 1
    assert all(entry["reason"] for entry in report["suppressed"])


def test_list_rules_reports_registry_and_suppressions(repo_root):
    completed = run_reprolint(["src", "--list-rules"], cwd=repo_root)
    assert completed.returncode == 0
    for rule in all_rules():
        assert rule.id in completed.stdout
    assert "suppressions in scanned paths" in completed.stdout


def test_no_paths_is_a_usage_error(repo_root):
    completed = run_reprolint([], cwd=repo_root)
    assert completed.returncode == 2
    assert "no paths" in completed.stderr


def test_missing_design_document_is_an_error(repo_root, tmp_path):
    tree = write_fixture_tree(tmp_path, '"""Fixture module."""\n')
    completed = run_reprolint(
        [str(tree), "--design", str(tmp_path / "missing.md")], cwd=repo_root)
    assert completed.returncode == 2
    assert "error" in completed.stderr


@pytest.mark.parametrize("pragma_suffix,expected_code", [
    ("  # reprolint: allow[REP001] reason=fixture pins the measurement", 0),
    ("  # reprolint: allow[REP001]", 1),
])
def test_cli_respects_pragmas(repo_root, tmp_path, pragma_suffix,
                              expected_code):
    tree = write_fixture_tree(tmp_path, f'''
    """Fixture module exercising pragma handling end to end."""

    import time


    def stamp():
        """Documented wall-clock read, possibly excused."""
        return time.time(){pragma_suffix}
    ''')
    completed = run_reprolint([str(tree)], cwd=repo_root)
    assert completed.returncode == expected_code, (
        completed.stdout + completed.stderr)
