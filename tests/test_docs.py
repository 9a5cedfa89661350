"""Documentation gates: docstring coverage, cross-references, quickstarts.

These tests enforce the documentation contracts locally that CI's ``docs``
job enforces on every push:

* the public docstring coverage of ``src/repro`` stays at or above the
  threshold reprolint's REP006 pins (``tools.reprolint.rules``);
* DESIGN.md's paper ↔ code cross-reference table covers every experiment id
  EXPERIMENTS.md says gets generated;
* the README "Scenarios" quickstart commands are the ones CI smoke-tests,
  and they actually run.
"""

from __future__ import annotations

import pathlib
import re
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # ``tools`` lives at the root, not in src
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import rules  # noqa: E402


class TestDocstringCoverage:
    def test_coverage_meets_the_pinned_threshold(self):
        documented, total, missing = rules.coverage(REPO_ROOT / "src" / "repro")
        assert total > 0
        percent = 100.0 * documented / total
        assert percent >= rules.DOCSTRING_COVERAGE_THRESHOLD, (
            f"docstring coverage {percent:.1f}% fell below the pinned "
            f"{rules.DOCSTRING_COVERAGE_THRESHOLD}%; undocumented: {missing[:10]}")

    def test_every_public_module_has_a_module_docstring(self):
        _, _, missing = rules.coverage(REPO_ROOT / "src" / "repro")
        module_misses = [name for name in missing if name.endswith(".py")]
        assert module_misses == []

    def test_scenario_modules_are_fully_documented(self):
        scenarios = (REPO_ROOT / "src" / "repro" / "simulation" / "scenarios")
        documented, total, missing = rules.coverage(scenarios)
        assert missing == []
        assert documented == total


class TestCrossReference:
    def _experiment_ids(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        section = text.split("## What gets generated")[1].split("##")[0]
        ids = re.findall(r"^\| `([a-z0-9-]+)`", section, flags=re.MULTILINE)
        assert ids, "EXPERIMENTS.md 'What gets generated' table not found"
        return ids

    def test_design_cross_reference_covers_every_experiment_id(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        assert "## Paper ↔ code cross-reference" in design
        table = design.split("## Paper ↔ code cross-reference")[1].split("\n## ")[0]
        for experiment_id in self._experiment_ids():
            assert f"`{experiment_id}`" in table, (
                f"DESIGN.md cross-reference table is missing {experiment_id!r}")

    def test_every_figure_of_the_paper_is_cross_referenced(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for figure in range(6, 13):
            assert f"`figure-{figure}`" in design

    def test_gallery_documents_every_registered_scenario(self):
        from repro.simulation.scenarios import scenario_names
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "## Scenario gallery" in experiments
        for name in scenario_names():
            assert f"--scenario {name}" in experiments or f"### {name}" in experiments, (
                f"EXPERIMENTS.md scenario gallery is missing {name!r}")


class TestScenariosQuickstart:
    def test_readme_has_a_scenarios_section_with_the_ci_smoked_commands(self):
        readme = (REPO_ROOT / "README.md").read_text()
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "## Scenarios" in readme
        for command in ("python -m repro scenario list",
                        "python -m repro scenario run"):
            assert command in readme
            assert command in workflow

    def test_the_quickstart_commands_run(self, capsys):
        from repro import cli
        assert cli.main(["scenario", "list"]) == 0
        assert cli.main(["scenario", "run", "--scenario", "flashcrowd",
                         "--peers", "60", "--keys", "4", "--duration", "200",
                         "--queries", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "flashcrowd" in out

    def test_readme_mentions_the_scenario_gallery(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "Scenario gallery" in readme


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md",
                                      "EXPERIMENTS.md", "CHANGES.md"])
def test_top_level_documents_exist_and_are_non_trivial(document):
    """The documentation set the repo promises is present and substantial."""
    path = REPO_ROOT / document
    assert path.is_file()
    assert len(path.read_text()) > 200
