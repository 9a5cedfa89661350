"""Documentation gates: docstring coverage, cross-references, quickstarts.

These tests enforce the documentation contracts locally that CI's ``docs``
job enforces on every push:

* the public docstring coverage of ``src/repro`` stays at or above the
  threshold reprolint's REP006 pins (``tools.reprolint.rules``);
* EXPERIMENTS.md's "What gets generated" table has a row per declared
  experiment, and DESIGN.md's paper ↔ code cross-reference table covers
  every id it lists;
* the README "Scenarios" quickstart commands are the ones CI smoke-tests,
  and they actually run;
* the code names the prose documents mention in backticks still resolve.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
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

    def test_every_declared_experiment_has_its_own_row(self):
        from repro.experiments.figures import EXPERIMENTS
        ids = self._experiment_ids()
        assert [name for name in EXPERIMENTS if name not in ids] == []
        assert len(ids) == len(set(ids))

    def test_every_figure_of_the_paper_is_cross_referenced(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for figure in range(6, 13):
            assert f"`figure-{figure}`" in design

    def test_gallery_documents_every_registered_scenario(self):
        from repro.simulation.scenarios import SCENARIOS
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "## Scenario gallery" in experiments
        for name in sorted(SCENARIOS):
            assert f"--scenario {name}" in experiments or f"### {name}" in experiments, (
                f"EXPERIMENTS.md scenario gallery is missing {name!r}")


class TestScenariosQuickstart:
    def test_readme_counts_the_shipped_scenarios(self):
        from repro.simulation.scenarios import SCENARIOS
        readme = (REPO_ROOT / "README.md").read_text()
        assert f"({len(SCENARIOS)} ship out of the box" in readme

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


def _repro_classes():
    """Class name -> the classes of that name defined in a ``repro`` module."""
    import repro
    classes = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == info.name:
                classes.setdefault(name, []).append(value)
    return classes


def _resolves(path):
    """Whether a dotted ``repro.…`` path imports, then ``getattr``s, to something."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _has_attribute(cls, attr):
    """A class attribute, or a ``self.attr`` assignment in a repro class of the MRO."""
    if hasattr(cls, attr):
        return True
    assignment = re.compile(rf"\bself\.{re.escape(attr)}\s*(?::[^=\n]+)?=[^=]")
    return any(assignment.search(inspect.getsource(base))
               for base in cls.__mro__ if base.__module__.startswith("repro."))


class TestNamesResolve:
    """Backticked code names in the prose documents name code that exists.

    Two kinds are checked in inline code spans (fenced blocks are commands):
    dotted ``repro.…`` paths, and ``Class.attr`` where ``Class`` is a class
    defined in a ``repro`` module (``Class.record_*`` globs are skipped).
    """

    DOCUMENTS = ["DESIGN.md", "EXPERIMENTS.md", "README.md"]
    DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
    CLASS_ATTRIBUTE = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)(?![\w*])")

    def _names(self, pattern, document):
        text = (REPO_ROOT / document).read_text()
        text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
        return {name for span in re.findall(r"`([^`\n]+)`", text)
                for name in pattern.findall(span)}

    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_dotted_repro_paths_import(self, document):
        paths = self._names(self.DOTTED, document)
        assert [path for path in sorted(paths) if not _resolves(path)] == []

    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_class_attributes_exist(self, document):
        classes = _repro_classes()
        missing = [f"{owner}.{attr}"
                   for owner, attr in sorted(self._names(self.CLASS_ATTRIBUTE, document))
                   if owner in classes
                   and not any(_has_attribute(cls, attr) for cls in classes[owner])]
        assert missing == []

    def test_the_scan_has_names_to_check_and_catches_stale_ones(self):
        classes = _repro_classes()
        paths = set().union(*(self._names(self.DOTTED, d) for d in self.DOCUMENTS))
        pairs = set().union(*(self._names(self.CLASS_ATTRIBUTE, d) for d in self.DOCUMENTS))
        assert len(paths) >= 30
        assert len({pair for pair in pairs if pair[0] in classes}) >= 30
        local_store = classes["LocalStore"][0]
        assert _has_attribute(local_store, "_point_slots")      # set in __init__
        assert not _has_attribute(local_store, "_by_point")     # renamed away
        assert _resolves("repro.dht.kademlia.RoutingTable.closest")
        assert not _resolves("repro.dht.kademlia.KBucket")      # deleted in 6.0.0


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md",
                                      "EXPERIMENTS.md", "CHANGES.md"])
def test_top_level_documents_exist_and_are_non_trivial(document):
    """The documentation set the repo promises is present and substantial."""
    path = REPO_ROOT / document
    assert path.is_file()
    assert len(path.read_text()) > 200
