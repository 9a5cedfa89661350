"""The reprolint engine: parse files, run rules, apply pragmas.

:func:`lint_paths` is the entry point the CLI and CI use; :func:`lint_source`
lints a single in-memory snippet and is what the fixture tests in
``tests/analysis/`` drive.  Pragma application is uniform across rules (the
pragma must name the finding's rule and cover its line; a REP008 finding
sits on its ``def``/``class`` line) with two exceptions: REP006 (aggregate
docstring coverage) and REP007 (the line budget) are tree-level properties
and cannot be pragma'd away — fix the tree or change the pinned number.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from tools.reprolint.layers import LayerMap, parse_layer_map
from tools.reprolint.pragmas import Pragma, parse_pragmas
from tools.reprolint.rules import (
    Finding,
    Suppression,
    check_ambient_random,
    check_async_hygiene,
    check_callers,
    check_docstring_coverage,
    check_layering,
    check_line_budget,
    check_order_dependence,
    check_wall_clock,
    collect_aliases,
)

__all__ = ["FileContext", "LintResult", "lint_paths", "lint_source"]

#: Default location of the architecture document holding the layer map.
DEFAULT_DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    path: str
    module: Optional[str]
    tree: ast.Module
    lines: Sequence[str]
    aliases: Dict[str, str] = field(default_factory=dict)
    pragmas: List[Pragma] = field(default_factory=list)


@dataclass
class LintResult:
    """Outcome of a lint run: live findings, suppressions and coverage."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Suppression] = field(default_factory=list)
    docstring_coverage: Dict[str, object] = field(default_factory=dict)
    line_budget: Dict[str, object] = field(default_factory=dict)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing is left to fix."""
        return not self.findings

    def counts_by_rule(self) -> Dict[str, Dict[str, int]]:
        """``{rule: {"findings": n, "suppressed": m}}`` over this run."""
        counts: Dict[str, Dict[str, int]] = {}
        for finding in self.findings:
            counts.setdefault(finding.rule,
                              {"findings": 0, "suppressed": 0})["findings"] += 1
        for suppression in self.suppressed:
            counts.setdefault(suppression.finding.rule,
                              {"findings": 0, "suppressed": 0})["suppressed"] += 1
        return counts


def module_name_for(path: pathlib.Path) -> Optional[str]:
    """Dotted module name, derived from the path parts starting at ``repro``.

    ``src/repro/dht/model.py`` → ``repro.dht.model``;
    ``.../repro/core/__init__.py`` → ``repro.core``.  Files outside a
    ``repro`` tree get ``None`` (layer/package-scoped rules skip them).
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    tail = parts[parts.index("repro"):]
    if tail[-1] == "__init__.py":
        tail = tail[:-1]
    else:
        tail[-1] = tail[-1][:-3] if tail[-1].endswith(".py") else tail[-1]
    return ".".join(tail)


def _build_context(path: pathlib.Path, source: str,
                   module: Optional[str] = None) -> FileContext:
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return FileContext(
        path=str(path),
        module=module if module is not None else module_name_for(path),
        tree=tree,
        lines=lines,
        aliases=collect_aliases(tree),
        pragmas=parse_pragmas(lines),
    )


def _per_file_findings(ctx: FileContext,
                       layer_map: Optional[LayerMap]) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(check_wall_clock(ctx))
    findings.extend(check_ambient_random(ctx))
    findings.extend(check_order_dependence(ctx))
    findings.extend(check_async_hygiene(ctx))
    findings.extend(check_layering(ctx, layer_map))
    return findings


def _apply_pragmas(ctx: FileContext, findings: Iterable[Finding],
                   ) -> Tuple[List[Finding], List[Suppression]]:
    """Split findings into live vs. suppressed; flag reason-less pragmas."""
    live: List[Finding] = []
    suppressed: List[Suppression] = []
    for finding in findings:
        pragma = next(
            (p for p in ctx.pragmas
             if p.valid and finding.rule in p.rules
             and finding.line in p.covers),
            None)
        if pragma is None:
            live.append(finding)
        else:
            suppressed.append(Suppression(finding=finding,
                                          reason=pragma.reason))
    for pragma in ctx.pragmas:
        if not pragma.valid:
            live.append(Finding(
                rule="REP000", path=ctx.path, line=pragma.line, column=0,
                message="reprolint pragma without a reason= justification — "
                        "it suppresses nothing; state which dynamic test "
                        "pins the excused behaviour"))
    return live, suppressed


def _iter_python_files(paths: Sequence[Union[str, pathlib.Path]],
                       ) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for entry in paths:
        path = pathlib.Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def _examples_beside(paths: Sequence[Union[str, pathlib.Path]],
                     ) -> List[ast.Module]:
    """The parsed scripts of each ``examples/`` beside a scanned directory.

    ``src`` finds the repository's ``examples/``, so REP008 counts the
    example scripts as callers without a flag of its own.
    """
    roots = {pathlib.Path(entry).resolve().parent / "examples"
             for entry in paths if pathlib.Path(entry).is_dir()}
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for root in sorted(roots) if root.is_dir()
            for path in _iter_python_files([root])]


def lint_source(source: str, module: Optional[str] = None,
                path: str = "<string>",
                layer_map: Optional[LayerMap] = None) -> LintResult:
    """Lint one in-memory snippet (fixture-test entry point).

    REP006, REP007 and REP008 are not evaluated here — coverage, size and
    callers over a one-file snippet are meaningless; the fixture tests
    exercise them through :func:`lint_paths` on a temporary tree instead.
    """
    ctx = _build_context(pathlib.Path(path), source, module=module)
    findings, suppressed = _apply_pragmas(
        ctx, _per_file_findings(ctx, layer_map))
    return LintResult(findings=findings, suppressed=suppressed,
                      files_scanned=1)


def lint_paths(paths: Sequence[Union[str, pathlib.Path]],
               design_path: Optional[Union[str, pathlib.Path]] = None,
               ) -> LintResult:
    """Lint every ``*.py`` file under ``paths``; the CLI/CI entry point.

    ``design_path`` overrides where the DESIGN.md layer map is read from
    (defaults to the repository's DESIGN.md next to ``tools/``); pass a path
    whose document lacks the map to get a hard :class:`ValueError` — the
    layering rule never silently no-ops.
    """
    design = pathlib.Path(design_path) if design_path else DEFAULT_DESIGN
    layer_map = parse_layer_map(design) if design.exists() else None
    if layer_map is None:
        raise ValueError(f"layer map source not found: {design}")

    result = LintResult()
    contexts: List[FileContext] = []
    for path in _iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            contexts.append(_build_context(path, source))
        except SyntaxError as exc:
            result.findings.append(Finding(
                rule="REP000", path=str(path), line=exc.lineno or 1, column=0,
                message=f"file does not parse: {exc.msg}"))

    uncalled: Dict[str, List[Finding]] = {}
    for finding in check_callers(contexts, _examples_beside(paths)):
        uncalled.setdefault(finding.path, []).append(finding)
    for ctx in contexts:
        live, suppressed = _apply_pragmas(
            ctx, _per_file_findings(ctx, layer_map) + uncalled.get(ctx.path, []))
        result.findings.extend(live)
        result.suppressed.extend(suppressed)

    coverage_findings, summary = check_docstring_coverage(contexts)
    result.findings.extend(coverage_findings)  # never pragma-suppressible
    result.docstring_coverage = summary
    budget_findings, result.line_budget = check_line_budget(
        contexts, root=", ".join(str(entry) for entry in paths))
    result.findings.extend(budget_findings)  # never pragma-suppressible
    result.files_scanned = len(contexts)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return result
