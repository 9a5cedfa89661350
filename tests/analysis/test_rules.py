"""Per-rule fixture corpus for REP001–REP004 and REP008, plus the REP007
line budget.

Every rule gets known-bad snippets (must produce a finding) and known-good
snippets (must stay silent).  Snippets are linted in memory through
:func:`tools.reprolint.lint_source` with the module name a real file in that
layer would get, so layer- and package-scoped rules see realistic contexts;
REP008 reads a whole tree, so its snippets are written to a temporary one.
"""

import ast
import pathlib
import re
import textwrap

import pytest

from tools.reprolint import FileContext, lint_paths, lint_source
from tools.reprolint.cli import main
from tools.reprolint.pragmas import parse_pragmas
from tools.reprolint.rules import check_line_budget, referenced_names


def rules_of(result):
    """The sorted distinct rule ids of a lint result."""
    return sorted({finding.rule for finding in result.findings})


def lint(source, module="repro.core.fixture"):
    return lint_source(textwrap.dedent(source), module=module,
                       path=f"{module.replace('.', '/')}.py")


# ------------------------------------------------------------------ REP001
REP001_BAD = [
    # Direct wall-clock read in a deterministic layer.
    """
    import time

    def stamp():
        return time.time()
    """,
    # Aliased import and datetime.now both resolve through the alias map.
    """
    import time as clock
    from datetime import datetime

    def measure():
        started = clock.perf_counter()
        return datetime.now(), started
    """,
]

REP001_GOOD = [
    # Simulation time is injected, not read from the host clock.
    """
    def stamp(sim):
        return sim.now
    """,
    # Importing time for type/constant use without calling the clock is fine.
    """
    import time

    SLEEP_GRANULARITY = 0.001

    def budget(deadline, now):
        return deadline - now
    """,
]


@pytest.mark.parametrize("source", REP001_BAD)
def test_rep001_flags_wall_clock(source):
    assert "REP001" in rules_of(lint(source))


@pytest.mark.parametrize("source", REP001_GOOD)
def test_rep001_allows_injected_time(source):
    assert "REP001" not in rules_of(lint(source))


# ------------------------------------------------------------------ REP002
REP002_BAD = [
    # Module-level random draw: the ambient, unseedable stream.
    """
    import random

    def pick(items):
        return random.choice(items)
    """,
    # Unseeded Random(): replays diverge run to run.
    """
    import random

    def make_rng():
        return random.Random()
    """,
    # from-import of a draw function still resolves to random.*.
    """
    from random import shuffle

    def scramble(items):
        shuffle(items)
        return items
    """,
]

REP002_GOOD = [
    # Seeded constructor and injected rng draws are the sanctioned pattern.
    """
    import random

    def make_rng(seed):
        return random.Random(seed)

    def pick(items, rng):
        return items[rng.randrange(len(items))]
    """,
    # hash() inside __hash__ is exactly where the builtin belongs.
    """
    class Key:
        def __init__(self, value):
            self.value = value

        def __hash__(self):
            return hash(self.value)
    """,
]


@pytest.mark.parametrize("source", REP002_BAD)
def test_rep002_flags_ambient_randomness(source):
    assert "REP002" in rules_of(lint(source))


@pytest.mark.parametrize("source", REP002_GOOD)
def test_rep002_allows_seeded_injection(source):
    assert "REP002" not in rules_of(lint(source))


def test_rep002_flags_hash_in_deterministic_layer():
    source = """
    def bucket_of(key, buckets):
        return hash(key) % buckets
    """
    assert "REP002" in rules_of(lint(source, module="repro.dht.fixture"))


def test_rep002_hash_outside_deterministic_layers_is_quiet():
    source = """
    def bucket_of(key, buckets):
        return hash(key) % buckets
    """
    assert "REP002" not in rules_of(lint(source, module="examples.fixture"))


# ------------------------------------------------------------------ REP003
REP003_BAD = [
    # Set iteration feeding an accumulated (returned) list.
    """
    def order(members):
        out = []
        for member in {m for m in members}:
            out.append(member)
        return out
    """,
    # dict.keys() iteration feeding an RNG draw: the stream now depends on
    # hash order.
    """
    def sample(table, rng):
        picks = []
        for key in table.keys():
            picks.append(rng.random())
        return picks
    """,
    # set() call feeding json serialisation.
    """
    import json

    def dump(items, handle):
        for item in set(items):
            json.dump(item, handle)
    """,
]

REP003_GOOD = [
    # sorted() around the unordered iterable fixes the order.
    """
    def order(members):
        out = []
        for member in sorted({m for m in members}):
            out.append(member)
        return out
    """,
    # Iterating a list is ordered; nothing to flag.
    """
    def order(members):
        out = []
        for member in members:
            out.append(member)
        return out
    """,
    # Unordered iteration that only aggregates order-insensitively is fine.
    """
    def total(costs):
        best = 0
        for cost in set(costs):
            best = max(best, cost)
        return best
    """,
]


@pytest.mark.parametrize("source", REP003_BAD)
def test_rep003_flags_order_dependence(source):
    assert "REP003" in rules_of(lint(source))


@pytest.mark.parametrize("source", REP003_GOOD)
def test_rep003_allows_sorted_or_ordered(source):
    assert "REP003" not in rules_of(lint(source))


# ------------------------------------------------------------------ REP004
REP004_BAD = [
    # Blocking sleep inside a coroutine.
    """
    import asyncio
    import time

    async def worker():
        time.sleep(1.0)
    """,
    # A coroutine called as a bare statement never runs.
    """
    async def stop():
        pass

    def shutdown():
        stop()
    """,
    # self.<async method> of the same class as a bare statement.
    """
    class Server:
        async def stop(self):
            pass

        def handle(self, op):
            if op == "shutdown":
                self.stop()
    """,
]

REP004_GOOD = [
    # asyncio.sleep awaited: the non-blocking form.
    """
    import asyncio

    async def worker():
        await asyncio.sleep(1.0)
    """,
    # Awaited coroutines and create_task-wrapped ones are fine.
    """
    import asyncio

    async def stop():
        pass

    async def shutdown(loop):
        await stop()
        task = loop.create_task(stop())
        await task
    """,
    # A sync method that shares its name with another class's async method
    # is not an un-awaited coroutine (e.g. ServerThread.stop vs Server.stop).
    """
    class Server:
        async def stop(self):
            pass

    class ServerThread:
        def stop(self):
            pass

        def __exit__(self, exc_type, exc, tb):
            self.stop()
    """,
]


@pytest.mark.parametrize("source", REP004_BAD)
def test_rep004_flags_async_hygiene(source):
    assert "REP004" in rules_of(lint(source, module="repro.net.fixture"))


@pytest.mark.parametrize("source", REP004_GOOD)
def test_rep004_allows_clean_async(source):
    assert "REP004" not in rules_of(lint(source, module="repro.net.fixture"))


def test_rep004_only_applies_to_repro_net():
    source = """
    import time

    def pace():
        time.sleep(0.1)
    """
    result = lint(source, module="repro.experiments.fixture")
    assert "REP004" not in rules_of(result)


# ------------------------------------------------------------------ REP007
def context(module, line_count):
    source = "\n".join(f"VALUE_{index} = {index}" for index in range(line_count))
    return FileContext(path=f"{module}.py", module=module,
                       tree=ast.parse(source), lines=source.splitlines())


def test_rep007_flags_a_tree_over_its_budget():
    contexts = [context("repro.alpha", 3), context("repro.beta", 2)]
    findings, summary = check_line_budget(contexts, root="src", budget=4)
    assert summary == {"lines": 5, "budget": 4}
    assert [(f.rule, f.path) for f in findings] == [("REP007", "src")]
    assert "5 lines" in findings[0].message


def test_rep007_counts_only_repro_modules_and_allows_the_budget_itself():
    contexts = [context("repro.alpha", 3), context(None, 50)]
    findings, summary = check_line_budget(contexts, root="src", budget=3)
    assert findings == [] and summary["lines"] == 3


# ------------------------------------------------------------------ REP008
def lint_tree(tmp_path, modules, examples=(), tests=()):
    """Lint a ``repro`` package under ``tmp_path/src`` built from ``modules``
    (file name -> source), with ``examples/`` and ``tests/`` scripts beside
    ``src/``; the tests are scanned too, and still call nothing."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    modules = {"__init__.py": '"""Fixture package."""\n', **modules}
    for name, source in modules.items():
        (package / name).write_text(textwrap.dedent(source), encoding="utf-8")
    for folder, scripts in (("examples", examples), ("tests", tests)):
        (tmp_path / folder).mkdir()
        for index, source in enumerate(scripts):
            (tmp_path / folder / f"script_{index}.py").write_text(
                textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path / "src", tmp_path / "tests"])


def uncalled(result):
    """The sorted names REP008 flags in a lint result."""
    return sorted(finding.message.split()[1] for finding in result.findings
                  if finding.rule == "REP008")


REP008_BAD = {
    "no-reference": ({"fixture.py": """
        def orphan():
            return 1
        """}, (), (), ["orphan"]),
    "test-only": ({"fixture.py": """
        def tested():
            return 1
        """}, (), ("""
        from repro.fixture import tested

        assert tested() == 1
        """,), ["tested"]),
    "all-only": ({"fixture.py": """
        __all__ = ["exported"]


        def exported():
            return 1
        """}, (), (), ["exported"]),
    "package-re-export-only": ({
        "__init__.py": "from repro.fixture import reexported\n",
        "fixture.py": """
        def reexported():
            return 1
        """}, (), (), ["reexported"]),
    "annotated-all-only": ({"fixture.py": """
        __all__: list = ["exported"]


        def exported():
            return 1
        """}, (), (), ["exported"]),
    "augmented-all-only": ({"fixture.py": """
        __all__ = []
        __all__ += ["exported"]


        def exported():
            return 1
        """}, (), (), ["exported"]),
    "package-string-only": ({
        "__init__.py": 'LOADERS = ("loaded",)\n',
        "fixture.py": """
        def loaded():
            return 1
        """}, (), (), ["loaded"]),
    "mention-in-prose-only": ({"fixture.py": """
        # orphan is kept for a later caller.
        USAGE = "call orphan() to start"


        def orphan():
            return 1
        """}, (), (), ["orphan"]),
    "unused-method-of-a-used-class": ({"fixture.py": """
        class Used:
            def spare(self):
                return 1


        INSTANCE = Used()
        """}, (), (), ["spare"]),
    "unreferenced-class": ({"fixture.py": """
        class Orphan:
            pass
        """}, (), (), ["Orphan"]),
    "async-def": ({"fixture.py": """
        async def serve():
            return 1
        """}, (), (), ["serve"]),
}

REP008_GOOD = {
    "src-reference": {"fixture.py": """
        def helper():
            return 1


        VALUE = helper()
        """},
    "dunder-and-private-class": {"fixture.py": """
        class Thing:
            def __repr__(self):
                return "thing"


        class _Connection:
            def data_received(self, data):
                return data


        THING = Thing()
        """},
    "override-kept-by-a-base-call": {"fixture.py": """
        class Base:
            def run(self):
                raise NotImplementedError


        class Child(Base):
            def run(self):
                return 1


        def drive(node: Base):
            return node.run()


        DRIVEN = drive(Child())
        """},
    "import-alias": {"fixture.py": """
        def helper():
            return 1
        """, "user.py": """
        from repro.fixture import helper as aliased

        VALUE = aliased()
        """},
    "module-attribute": {"fixture.py": """
        def helper():
            return 1
        """, "user.py": """
        import repro.fixture as fixture_module

        VALUE = fixture_module.helper()
        """},
    "getattr-string": {"fixture.py": """
        class Thing:
            def handle(self):
                return 1


        HANDLER = getattr(Thing(), "handle")
        """},
    "base-class-only": {"fixture.py": """
        class Base:
            pass


        class Child(Base):
            pass


        CHILD = Child()
        """},
    "annotation-only": {"fixture.py": """
        class Model:
            pass


        def build() -> Model:
            return None


        BUILD = build
        """},
    "function-local-helper": {"fixture.py": """
        def outer():
            def inner():
                return 1
            return 1


        VALUE = outer()
        """},
}


@pytest.mark.parametrize("modules, examples, tests, flagged",
                         REP008_BAD.values(), ids=REP008_BAD.keys())
def test_rep008_flags_a_public_name_without_a_caller(tmp_path, modules,
                                                     examples, tests, flagged):
    assert uncalled(lint_tree(tmp_path, modules, examples, tests)) == flagged


@pytest.mark.parametrize("modules", REP008_GOOD.values(), ids=REP008_GOOD.keys())
def test_rep008_allows_a_name_with_a_caller(tmp_path, modules):
    assert uncalled(lint_tree(tmp_path, modules)) == []


def test_rep008_counts_an_examples_script_as_a_caller(tmp_path):
    result = lint_tree(tmp_path, {"fixture.py": """
        def shown():
            return 1
        """}, examples=("""
        from repro.fixture import shown

        print(shown())
        """,))
    assert uncalled(result) == []


def test_rep008_pragma_needs_a_reason(tmp_path):
    source = '''
    """Fixture module."""


    # reprolint: allow[REP008]{reason}
    def kept():
        """Documented, but called by nothing in the tree."""
        return 1
    '''
    bare = lint_tree(tmp_path / "bare", {"fixture.py": source.format(reason="")})
    assert rules_of(bare) == ["REP000", "REP008"] and uncalled(bare) == ["kept"]
    reasoned = lint_tree(tmp_path / "reasoned", {"fixture.py": source.format(
        reason=" reason=bench/layers.py wraps it")})
    assert rules_of(reasoned) == []
    assert [s.finding.rule for s in reasoned.suppressed] == ["REP008"]


def test_rep008_is_listed(repo_root, capsys):
    assert main([str(repo_root / "src"), "--list-rules"]) == 0
    assert "REP008" in capsys.readouterr().out


def test_rep008_does_not_flag_defs_outside_the_package(tmp_path):
    result = lint_tree(tmp_path, {}, examples=("""
        def show():
            return 1
        """,), tests=("""
        def helper():
            return 1
        """,))
    assert uncalled(result) == []


def test_rep008_finding_points_at_the_def(tmp_path):
    result = lint_tree(tmp_path, {"fixture.py": """
        VALUE = 1


        class Holder:
            @property
            def spare(self):
                return 1


        HOLDER = Holder()
        """})
    [finding] = [f for f in result.findings if f.rule == "REP008"]
    assert finding.path.endswith("fixture.py") and finding.line == 7


@pytest.mark.parametrize("placement, suppressed", [
    ("trailing", True),
    ("between-decorator-and-def", True),
    ("above-the-decorator", False),
])
def test_rep008_pragma_covers_the_def_line_only(tmp_path, placement, suppressed):
    pragma = "# reprolint: allow[REP008] reason=bench/layers.py wraps it"
    lines = {
        "trailing": ["@staticmethod", f"def kept():  {pragma}"],
        "between-decorator-and-def": ["@staticmethod", pragma, "def kept():"],
        "above-the-decorator": [pragma, "@staticmethod", "def kept():"],
    }[placement]
    body = "\n".join("    " + line for line in lines + ["    return 1"])
    result = lint_tree(tmp_path, {"fixture.py": (
        f"class Holder:\n{body}\n\n\nHOLDER = Holder()\n")})
    assert uncalled(result) == ([] if suppressed else ["kept"])


def test_rep008_failure_fails_the_cli(tmp_path, capsys):
    lint_tree(tmp_path, {"fixture.py": """
        def orphan():
            return 1
        """})
    assert main([str(tmp_path / "src")]) == 1
    assert "REP008" in capsys.readouterr().out


# REP008 pragmas of the real tree: each must still excuse a name that has no
# caller in src/ or examples/, and each caller its reason names must exist and
# still use the name, so a pragma cannot outlive its caller.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CALLER_PATH = re.compile(r"\b((?:bench|examples|tests)/[\w/]+\.py)\b")


def rep008_pragmas():
    """``(src path, def line, name, reason)`` for every REP008 pragma in src/."""
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for pragma in parse_pragmas(lines):
            if "REP008" in pragma.rules:
                match = re.search(r"(?:def|class)\s+(\w+)", lines[pragma.line])
                found.append((path.relative_to(REPO_ROOT).as_posix(),
                              pragma.line + 1, match.group(1), pragma.reason))
    return found


REP008_PRAGMAS = rep008_pragmas()


def test_every_rep008_pragma_in_src_suppresses_a_finding(repo_root):
    result = lint_paths([repo_root / "src"])
    excused = {(pathlib.Path(s.finding.path).resolve(), s.finding.line)
               for s in result.suppressed if s.finding.rule == "REP008"}
    assert excused == {((repo_root / path).resolve(), line)
                       for path, line, _, _ in REP008_PRAGMAS}


@pytest.mark.parametrize(
    "path, name, reason",
    [(path, name, reason) for path, _, name, reason in REP008_PRAGMAS],
    ids=[f"{path[len('src/repro/'):]}:{name}"
         for path, _, name, _ in REP008_PRAGMAS])
def test_rep008_pragma_names_a_caller_that_uses_the_name(repo_root, path,
                                                          name, reason):
    callers = CALLER_PATH.findall(reason)
    assert callers, f"{path}: the reason names no caller file: {reason}"
    for caller in callers:
        tree = ast.parse((repo_root / caller).read_text(encoding="utf-8"))
        assert name in referenced_names(tree), f"{caller} does not use {name}"
