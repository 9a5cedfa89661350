"""Per-rule fixture corpus for REP001–REP004, plus the REP007 line budget.

Every rule gets known-bad snippets (must produce a finding) and known-good
snippets (must stay silent).  Snippets are linted in memory through
:func:`tools.reprolint.lint_source` with the module name a real file in that
layer would get, so layer- and package-scoped rules see realistic contexts.
"""

import ast
import textwrap

import pytest

from tools.reprolint import FileContext, lint_source
from tools.reprolint.rules import check_line_budget


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
