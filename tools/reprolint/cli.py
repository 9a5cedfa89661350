"""Command-line front end: ``python -m tools.reprolint src [options]``.

Exit status: 0 when the tree is clean, 1 when findings remain, 2 on usage
errors (no paths, unreadable design document).  ``--format json`` emits the
machine-readable report CI archives; ``--list-rules`` prints the registry
with each rule's current suppression count over the scanned paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from tools.reprolint.engine import LintResult, lint_paths
from tools.reprolint.rules import all_rules

__all__ = ["main"]


def _human_report(result: LintResult) -> str:
    lines: List[str] = []
    for finding in result.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.column + 1}: "
                     f"{finding.rule} {finding.message}")
    coverage = result.docstring_coverage
    if coverage:
        lines.append(
            f"docstring coverage: {coverage['percent']}% "
            f"({coverage['documented']}/{coverage['total']} public objects, "
            f"threshold {coverage['threshold']}%)")
    budget = result.line_budget
    if budget:
        lines.append(f"source lines: {budget['lines']} "
                     f"(budget {budget['budget']})")
    lines.append(
        f"reprolint: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed by pragma, "
        f"{result.files_scanned} file(s) scanned")
    return "\n".join(lines)


def _json_report(result: LintResult, paths: List[str]) -> str:
    counts = result.counts_by_rule()
    payload = {
        "tool": "reprolint",
        "paths": paths,
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [s.to_dict() for s in result.suppressed],
        "docstring_coverage": result.docstring_coverage,
        "line_budget": result.line_budget,
        "rules": [
            {"id": rule.id, "summary": rule.summary, "layers": rule.layers,
             "findings": counts.get(rule.id, {}).get("findings", 0),
             "suppressed": counts.get(rule.id, {}).get("suppressed", 0)}
            for rule in all_rules()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _list_rules(result: Optional[LintResult]) -> str:
    counts = result.counts_by_rule() if result is not None else {}
    lines = []
    for rule in all_rules():
        suppressed = counts.get(rule.id, {}).get("suppressed", 0)
        lines.append(f"{rule.id}  {rule.summary}")
        lines.append(f"        layers: {rule.layers}")
        lines.append(f"        suppressions in scanned paths: {suppressed}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, lint, report; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Static enforcement of the repo's determinism, async "
                    "and layering invariants, the src/ line budget and "
                    "every public name's caller (REP001-REP008).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (e.g. src)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="report format")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the report to FILE")
    parser.add_argument("--design", metavar="PATH",
                        help="architecture document holding the layer map "
                             "(default: the repository DESIGN.md)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry (id, summary, layers, "
                             "suppression count over the scanned paths)")
    args = parser.parse_args(argv)

    if not args.paths and not args.list_rules:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: python -m tools.reprolint src)",
              file=sys.stderr)
        return 2

    paths = args.paths or (["src"] if args.list_rules else [])
    try:
        result = lint_paths(paths, design_path=args.design)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_rules:
        print(_list_rules(result))
        return 0

    report = (_json_report(result, paths) if args.format == "json"
              else _human_report(result))
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0 if result.ok else 1
