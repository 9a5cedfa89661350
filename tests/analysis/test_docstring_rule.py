"""REP006: the docstring-coverage gate of reprolint."""

import textwrap

from tools.reprolint import DOCSTRING_COVERAGE_THRESHOLD, lint_paths


def write_module(tmp_path, name, source):
    package = tmp_path / "repro"
    package.mkdir(exist_ok=True)
    init = package / "__init__.py"
    if not init.exists():
        init.write_text('"""Fixture package."""\n', encoding="utf-8")
    (package / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return package


def test_rep006_fires_below_threshold(tmp_path):
    package = write_module(tmp_path, "bare.py", '''
    """Fixture module whose functions are undocumented."""


    def alpha():
        return 1


    def beta():
        return 2


    def gamma():
        return 3
    ''')
    result = lint_paths([package])
    rep006 = [f for f in result.findings if f.rule == "REP006"]
    assert rep006, result.findings
    assert result.docstring_coverage["percent"] < DOCSTRING_COVERAGE_THRESHOLD
    assert any("alpha" in finding.message for finding in rep006)


def test_rep006_quiet_at_full_coverage(tmp_path):
    package = write_module(tmp_path, "documented.py", '''
    """Fixture module with a fully documented surface."""


    def alpha():
        """Return one."""
        return 1
    ''')
    result = lint_paths([package])
    assert [f for f in result.findings if f.rule == "REP006"] == []
    assert result.docstring_coverage["percent"] == 100.0


def test_rep006_cannot_be_suppressed_by_pragma(tmp_path):
    package = write_module(tmp_path, "bare.py", '''
    """Fixture: a pragma must not excuse the aggregate coverage gate."""

    # reprolint: allow[REP006] reason=trying to dodge the aggregate gate


    def alpha():
        return 1


    def beta():
        return 2


    def gamma():
        return 3
    ''')
    result = lint_paths([package])
    assert any(f.rule == "REP006" for f in result.findings)
