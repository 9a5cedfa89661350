"""The reprolint rule registry and the REP001–REP008 checkers.

Each rule is a pure function over a parsed :class:`~tools.reprolint.engine.
FileContext` (REP006, REP007 and REP008 read the whole scanned tree).  Checkers are
deliberately syntactic: they resolve dotted call names through the module's
import aliases (``import time as t`` still trips REP001) but do no type
inference — the dynamic test suite remains the semantic backstop, and the
``# reprolint: allow[RULE] reason=...`` pragma is the escape hatch for the
justified exceptions.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "DETERMINISTIC_LAYERS",
    "DOCSTRING_COVERAGE_THRESHOLD",
    "Finding",
    "SRC_LINE_BUDGET",
    "Rule",
    "Suppression",
    "all_rules",
    "coverage",
    "get_rule",
    "iter_public_objects",
]

#: Layers in which wall-clock/ambient-randomness findings are never expected
#: to carry a pragma (the replay guarantees live here).
DETERMINISTIC_LAYERS = ("repro.core", "repro.dht", "repro.simulation",
                        "repro.api", "repro.execution")

#: Public docstring coverage the scanned tree must keep (percent); REP006
#: and ``tests/test_docs.py`` both read it from here.
DOCSTRING_COVERAGE_THRESHOLD = 91.0

#: Most lines the scanned ``repro`` tree may hold (REP007), pinned at the
#: measured size of ``src/``.  Raising it needs a reason in CHANGES.md.
SRC_LINE_BUDGET = 12537

#: Wall-clock reads forbidden by REP001 (resolved through import aliases).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level ``random.*`` draws forbidden by REP002 (the ambient stream).
_AMBIENT_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.betavariate", "random.gammavariate", "random.lognormvariate",
    "random.triangular", "random.vonmisesvariate", "random.paretovariate",
    "random.weibullvariate", "random.getrandbits", "random.randbytes",
    "random.seed",
})

#: Blocking calls forbidden inside ``async def`` by REP004.
_BLOCKING_IN_ASYNC = frozenset({
    "time.sleep", "socket.socket", "socket.create_connection",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output", "os.system",
})

#: Set-returning methods whose direct iteration is unordered (REP003).
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference"})

#: Mutating-accumulator methods that count as "feeding" output (REP003).
_ACCUMULATORS = frozenset({"append", "extend", "add", "insert", "update"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-report record."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "column": self.column, "message": self.message}


@dataclass(frozen=True)
class Suppression:
    """A finding silenced by a valid pragma (kept for reporting/counting)."""

    finding: Finding
    reason: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-report record: the silenced finding plus its justification."""
        payload = dict(self.finding.to_dict())
        payload["reason"] = self.reason
        return payload


@dataclass(frozen=True)
class Rule:
    """Registry entry: id, one-line summary and the layers it applies to."""

    id: str
    summary: str
    layers: str
    check: Optional[Callable[..., List[Finding]]] = None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve(dotted: Optional[str], aliases: Dict[str, str]) -> Optional[str]:
    """Expand the first segment of ``dotted`` through the import aliases."""
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → dotted origin for every import in the module.

    ``import time as t`` maps ``t -> time``; ``from datetime import datetime``
    maps ``datetime -> datetime.datetime``; ``from time import perf_counter``
    maps ``perf_counter -> time.perf_counter``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _call_name(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    return _resolve(_dotted(node.func), aliases)


# ---------------------------------------------------------------- REP001
def check_wall_clock(ctx) -> List[Finding]:
    """REP001: no wall-clock reads; simulated/injected time only."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = _call_name(node, ctx.aliases)
        if resolved in _WALL_CLOCK:
            findings.append(Finding(
                rule="REP001", path=ctx.path, line=node.lineno,
                column=node.col_offset,
                message=f"wall-clock read {resolved}() — deterministic "
                        "layers must take time from the simulation clock or "
                        "an injected parameter"))
    return findings


# ---------------------------------------------------------------- REP002
def _enclosing_function_names(tree: ast.Module) -> Dict[int, str]:
    """Line → name of the innermost function owning that line."""
    owner: Dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno)
            for line in range(node.lineno, end + 1):
                owner[line] = node.name  # inner defs overwrite outer ones
    return owner


def check_ambient_random(ctx) -> List[Finding]:
    """REP002: randomness must be parameter-injected, never ambient."""
    findings = []
    in_deterministic = ctx.module is not None and ctx.module.startswith(
        DETERMINISTIC_LAYERS)
    owners = _enclosing_function_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = _call_name(node, ctx.aliases)
        if resolved in _AMBIENT_RANDOM:
            findings.append(Finding(
                rule="REP002", path=ctx.path, line=node.lineno,
                column=node.col_offset,
                message=f"ambient RNG draw {resolved}() — inject a seeded "
                        "random.Random instead of the module-level stream"))
        elif (resolved == "random.Random" and not node.args
                and not node.keywords):
            findings.append(Finding(
                rule="REP002", path=ctx.path, line=node.lineno,
                column=node.col_offset,
                message="unseeded random.Random() — pass an explicit seed "
                        "(or thread the caller's rng) so runs replay"))
        elif (resolved == "hash" and in_deterministic
                and owners.get(node.lineno) != "__hash__"):
            findings.append(Finding(
                rule="REP002", path=ctx.path, line=node.lineno,
                column=node.col_offset,
                message="built-in hash() is PYTHONHASHSEED-sensitive — use "
                        "repro.dht.hashing (or hashlib) for values that "
                        "reach ordered or persisted output"))
    return findings


# ---------------------------------------------------------------- REP003
def _is_unordered_iterable(node: ast.AST) -> Optional[str]:
    """A short description when ``node`` iterates in hash/arbitrary order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set",
                                                                "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "keys":
                return ".keys()"
            if node.func.attr in _SET_METHODS:
                return f".{node.func.attr}(...)"
    return None


def _feeds_output(loop: ast.For) -> Optional[str]:
    """Why the loop body is order-sensitive, or ``None`` when it is not."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return "yields values"
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _ACCUMULATORS:
                return f"accumulates via .{node.func.attr}()"
            dotted = _dotted(node.func) or ""
            segments = dotted.split(".")
            if any(segment in ("rng", "random") or segment.endswith("_rng")
                   or segment.lstrip("_") == "rng" for segment in segments[:-1]):
                return f"draws from an RNG ({dotted})"
            if dotted in ("json.dump", "json.dumps"):
                return "serialises output"
    return None


def check_order_dependence(ctx) -> List[Finding]:
    """REP003: unordered iteration must not feed RNG draws or results."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.For):
            continue
        unordered = _is_unordered_iterable(node.iter)
        if unordered is None:
            continue
        consequence = _feeds_output(node)
        if consequence is None:
            continue
        findings.append(Finding(
            rule="REP003", path=ctx.path, line=node.lineno,
            column=node.col_offset,
            message=f"iteration over {unordered} {consequence} — wrap the "
                    "iterable in sorted(...) to make the order (and any "
                    "RNG stream it feeds) reproducible"))
    return findings


# ---------------------------------------------------------------- REP004
def _module_level_async_defs(tree: ast.Module) -> Set[str]:
    """Names of async functions defined at module scope (not methods)."""
    return {node.name for node in tree.body
            if isinstance(node, ast.AsyncFunctionDef)}


def _async_methods_by_class(tree: ast.Module) -> Dict[str, Set[str]]:
    """Class name → its async method names (for ``self.x()`` detection)."""
    methods: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods[node.name] = {
                child.name for child in node.body
                if isinstance(child, ast.AsyncFunctionDef)}
    return methods


def check_async_hygiene(ctx) -> List[Finding]:
    """REP004: no blocking calls in ``async def``; await every coroutine."""
    if ctx.module is None or not (ctx.module == "repro.net"
                                  or ctx.module.startswith("repro.net.")):
        return []
    findings = []
    module_async = _module_level_async_defs(ctx.tree)
    class_async = _async_methods_by_class(ctx.tree)
    sleep_lines: Set[int] = set()

    for outer in ast.walk(ctx.tree):
        if not isinstance(outer, ast.AsyncFunctionDef):
            continue
        for node in ast.walk(outer):
            if not isinstance(node, ast.Call):
                continue
            resolved = _call_name(node, ctx.aliases)
            if resolved in _BLOCKING_IN_ASYNC or resolved == "open":
                findings.append(Finding(
                    rule="REP004", path=ctx.path, line=node.lineno,
                    column=node.col_offset,
                    message=f"blocking call {resolved}() inside async def "
                            f"{outer.name}() stalls the event loop — use the "
                            "asyncio equivalent or run_in_executor"))
                if resolved == "time.sleep":
                    sleep_lines.add(node.lineno)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = _call_name(node, ctx.aliases)
            if resolved == "time.sleep" and node.lineno not in sleep_lines:
                findings.append(Finding(
                    rule="REP004", path=ctx.path, line=node.lineno,
                    column=node.col_offset,
                    message="time.sleep() in repro.net — the transport "
                            "package runs next to an event loop; use "
                            "asyncio.sleep (or justify a pacing sleep with "
                            "a pragma)"))
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in module_async):
            findings.append(Finding(
                rule="REP004", path=ctx.path, line=node.lineno,
                column=node.col_offset,
                message=f"coroutine {node.value.func.id}() is called but "
                        "never awaited — the body will not run"))

    # ``self.x()`` statements are un-awaited coroutines only when ``x`` is an
    # async method of the *enclosing* class (another class may define a sync
    # method of the same name — e.g. ServerThread.stop vs. Server.stop).
    for klass in ast.walk(ctx.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        own_async = class_async.get(klass.name, set())
        if not own_async:
            continue
        for node in ast.walk(klass):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in own_async
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.func.value.id == "self"):
                findings.append(Finding(
                    rule="REP004", path=ctx.path, line=node.lineno,
                    column=node.col_offset,
                    message=f"coroutine {klass.name}."
                            f"{node.value.func.attr}() is called but never "
                            "awaited — the body will not run"))
    return findings


# ---------------------------------------------------------------- REP005
def _in_type_checking_block(tree: ast.Module) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` bodies (annotation-only)."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = test.id if isinstance(test, ast.Name) else (
            test.attr if isinstance(test, ast.Attribute) else None)
        if name != "TYPE_CHECKING":
            continue
        for child in node.body:
            end = getattr(child, "end_lineno", child.lineno)
            lines.update(range(child.lineno, end + 1))
    return lines


def check_layering(ctx, layer_map) -> List[Finding]:
    """REP005: no upward imports across the DESIGN.md layer map."""
    if ctx.module is None or layer_map is None:
        return []
    findings = []
    annotation_only = _in_type_checking_block(ctx.tree)
    importer = ctx.module
    for node in ast.walk(ctx.tree):
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets = [name.name for name in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [node.module]
        if not targets or node.lineno in annotation_only:
            continue
        for imported in targets:
            if not imported.startswith("repro"):
                continue
            if layer_map.net_violation(importer, imported):
                findings.append(Finding(
                    rule="REP005", path=ctx.path, line=node.lineno,
                    column=node.col_offset,
                    message=f"{importer} imports {imported}: repro.net is a "
                            "leaf subsystem — only repro.cli (and repro.net "
                            "itself) may depend on it"))
            elif layer_map.is_upward(importer, imported):
                findings.append(Finding(
                    rule="REP005", path=ctx.path, line=node.lineno,
                    column=node.col_offset,
                    message=f"upward import: {importer} (layer "
                            f"{layer_map.rank_of(importer)}) imports "
                            f"{imported} (layer {layer_map.rank_of(imported)}) "
                            "— lower layers must not depend on higher ones "
                            "(DESIGN.md layer map)"))
    return findings


# ---------------------------------------------------------------- REP006
def _base_names(class_node: ast.ClassDef) -> List[str]:
    """The plain names of a class's bases (``pkg.Base`` resolves to ``Base``)."""
    names: List[str] = []
    for base in class_node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def iter_public_objects(tree: ast.Module, module_label: str
                        ) -> Iterator[Tuple[str, bool, int]]:
    """Yield ``(qualified name, documented, line)`` for the module's public surface.

    The surface is the module itself plus every public class, function and
    method defined at module or class level (names starting with ``_`` —
    dunders included — and bodies nested inside functions are skipped).  A
    method without its own docstring counts as documented when it overrides
    a documented method of a base class defined in the same module — the
    same resolution ``help()`` performs through the MRO, so overrides of a
    documented contract are not flagged as missing documentation.  ``line``
    is the line of the ``def``/``class`` (0 for the module itself).
    """
    yield module_label, ast.get_docstring(tree) is not None, 0
    # First pass: collect classes (any nesting level) and their methods.
    classes: dict = {}
    stack: List[Tuple[ast.AST, str]] = [(tree, module_label)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            if child.name.startswith("_"):
                continue
            qualified = f"{prefix}:{child.name}"
            if isinstance(child, ast.ClassDef):
                methods = {
                    member.name: (ast.get_docstring(member) is not None,
                                  member.lineno)
                    for member in child.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                classes[child.name] = (qualified, _base_names(child),
                                       ast.get_docstring(child) is not None,
                                       methods, child.lineno)
                stack.append((child, qualified))
            elif isinstance(node, ast.Module):
                # Module-level function; methods are handled with their class.
                yield qualified, ast.get_docstring(child) is not None, child.lineno

    def inherited(method: str, bases: List[str], seen: frozenset) -> bool:
        for base in bases:
            if base in seen or base not in classes:
                continue
            _, base_bases, _, base_methods, _ = classes[base]
            if base_methods.get(method, (False, 0))[0]:
                return True
            if inherited(method, base_bases, seen | {base}):
                return True
        return False

    for name, (qualified, bases, class_documented, methods,
               line) in classes.items():
        yield qualified, class_documented, line
        for method, (documented, method_line) in methods.items():
            if method.startswith("_"):
                continue
            yield (f"{qualified}:{method}",
                   documented or inherited(method, bases, frozenset({name})),
                   method_line)


def coverage(root: pathlib.Path) -> Tuple[int, int, List[str]]:
    """``(documented, total, missing)`` over every ``*.py`` file under ``root``."""
    documented = 0
    total = 0
    missing: List[str] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, has_docstring, _ in iter_public_objects(tree, str(path)):
            total += 1
            if has_docstring:
                documented += 1
            else:
                missing.append(name)
    return documented, total, missing


def check_docstring_coverage(contexts) -> Tuple[List[Finding], Dict[str, object]]:
    """REP006: aggregate public docstring coverage of the scanned tree.

    Returns the findings (one per undocumented object, only when the
    aggregate falls below :data:`DOCSTRING_COVERAGE_THRESHOLD`) plus the
    coverage summary embedded in the JSON report either way.
    """
    documented = 0
    total = 0
    missing: List[Tuple[str, str]] = []
    for ctx in contexts:
        if ctx.module is None:
            continue
        for name, has_docstring, _ in iter_public_objects(ctx.tree, ctx.path):
            total += 1
            if has_docstring:
                documented += 1
            else:
                missing.append((ctx.path, name))
    percent = 100.0 * documented / total if total else 100.0
    summary: Dict[str, object] = {
        "documented": documented, "total": total,
        "percent": round(percent, 2),
        "threshold": DOCSTRING_COVERAGE_THRESHOLD,
    }
    findings: List[Finding] = []
    if percent < DOCSTRING_COVERAGE_THRESHOLD:
        for path, name in missing:
            findings.append(Finding(
                rule="REP006", path=path, line=1, column=0,
                message=f"undocumented public object {name} (tree coverage "
                        f"{percent:.1f}% is below the pinned "
                        f"{DOCSTRING_COVERAGE_THRESHOLD:.1f}%)"))
    return findings, summary


# ---------------------------------------------------------------- REP007
def check_line_budget(contexts, root: str,
                      budget: int = SRC_LINE_BUDGET,
                      ) -> Tuple[List[Finding], Dict[str, object]]:
    """REP007: the scanned ``repro`` tree stays within its line budget.

    Counts every line of every module (as ``wc -l`` does) and returns one
    finding, reported against ``root``, when the total exceeds ``budget``;
    the summary is embedded in the JSON report either way.
    """
    lines = sum(len(ctx.lines) for ctx in contexts if ctx.module is not None)
    summary: Dict[str, object] = {"lines": lines, "budget": budget}
    findings: List[Finding] = []
    if lines > budget:
        findings.append(Finding(
            rule="REP007", path=root, line=1, column=0,
            message=f"{lines} lines of source exceed the pinned budget of "
                    f"{budget} (SRC_LINE_BUDGET in tools/reprolint/rules.py) "
                    "— delete code, or raise the budget and say why in "
                    "CHANGES.md"))
    return findings, summary


# ---------------------------------------------------------------- REP008
def referenced_names(tree: ast.Module, package: bool = False) -> Set[str]:
    """Every name ``tree`` refers to, as REP008 counts references.

    A reference is a ``Name``, an attribute name, an imported name or an
    identifier string (a ``getattr`` target, a table key).  The strings of
    ``__all__`` are not references, and neither are a package's imports and
    strings (``package``: an ``__init__.py`` re-exports, it does not call).
    """
    exported: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and node.value is not None
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in (node.targets if isinstance(node, ast.Assign)
                                       else [node.target]))):
            exported.update(id(child) for child in ast.walk(node.value))
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not package:
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and not package and id(node) not in exported
                and node.value.isidentifier()):
            names.add(node.value)
    return names


def check_callers(contexts, examples: List[ast.Module]) -> List[Finding]:
    """REP008: every public def of the scanned tree has a caller.

    A public function, method or class (the :func:`iter_public_objects`
    surface, so dunders and the members of ``_private`` classes are out)
    needs a reference from the scanned ``repro`` tree or from ``examples``
    (the parsed ``examples/`` scripts); tests do not count.  Matching is by
    name, so a call through a base class keeps every override alive.  The
    same holds for any other def of that name, which is the rule's blind
    spot: a method named like a builtin's (``extend``, ``get``) is never
    flagged, since ``list.extend`` calls count for it.
    """
    referenced: Set[str] = set()
    for ctx in contexts:
        if ctx.module is not None:
            referenced |= referenced_names(
                ctx.tree, package=ctx.path.endswith("__init__.py"))
    for tree in examples:
        referenced |= referenced_names(tree)
    findings: List[Finding] = []
    for ctx in contexts:
        if ctx.module is None:
            continue
        for qualified, _, line in iter_public_objects(ctx.tree, ctx.path):
            name = qualified.rsplit(":", 1)[-1]
            if line and name not in referenced:
                findings.append(Finding(
                    rule="REP008", path=ctx.path, line=line, column=0,
                    message=f"public {name} has no reference from src/ or "
                            "examples/ — delete it, or name its caller in "
                            "a pragma"))
    return findings


# ----------------------------------------------------------------- registry
_RULES: Tuple[Rule, ...] = (
    Rule(id="REP000",
         summary="pragma without a reason= justification (never suppresses)",
         layers="anywhere a pragma appears"),
    Rule(id="REP001",
         summary="no wall-clock reads (time.time/monotonic/perf_counter, "
                 "datetime.now/utcnow)",
         layers="all of repro; strict in core, dht, simulation, api, "
                "execution (measurement harnesses pragma themselves)",
         check=check_wall_clock),
    Rule(id="REP002",
         summary="no ambient randomness: module-level random.*, unseeded "
                 "random.Random(), PYTHONHASHSEED-sensitive hash()",
         layers="all of repro (hash() check: core, dht, simulation, api, "
                "execution)",
         check=check_ambient_random),
    Rule(id="REP003",
         summary="unordered set/dict.keys() iteration feeding RNG draws, "
                 "accumulated results or serialised output",
         layers="all of repro",
         check=check_order_dependence),
    Rule(id="REP004",
         summary="async hygiene: blocking calls in async def, bare "
                 "time.sleep, un-awaited coroutines",
         layers="repro.net",
         check=check_async_hygiene),
    Rule(id="REP005",
         summary="import layering per the DESIGN.md layer map (no upward "
                 "imports; repro.net only from repro.cli)",
         layers="all of repro (contract parsed from DESIGN.md)"),
    Rule(id="REP006",
         summary=f"public docstring coverage >= "
                 f"{DOCSTRING_COVERAGE_THRESHOLD:.1f}% over the scanned tree",
         layers="all of repro (aggregate)"),
    Rule(id="REP007",
         summary=f"source size <= {SRC_LINE_BUDGET} lines over the scanned "
                 "tree (the src/ line budget)",
         layers="all of repro (aggregate)"),
    Rule(id="REP008",
         summary="every public function, method and class has a reference "
                 "from src/ or examples/ (tests do not count)",
         layers="all of repro (references: the scanned tree and the "
                "examples/ beside it)"),
)


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in id order."""
    return _RULES


def get_rule(rule_id: str) -> Rule:
    """The registry entry for ``rule_id`` (raises ``KeyError`` if unknown)."""
    for rule in _RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)
