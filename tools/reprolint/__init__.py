"""reprolint — static enforcement of the repo's determinism & layering invariants.

Everything this reproduction claims — bit-for-bit scenario replay, parallel
vs. serial executor parity, sim ↔ tcp value identity — rests on invariants
that the test suite only checks *dynamically*, after a violation has already
shipped.  ``reprolint`` is the lint-time gate: a stdlib-only (:mod:`ast` +
:mod:`tokenize`-free) analyzer with a rule registry, per-rule fixture tests
and ``# reprolint: allow[RULE] reason=...`` escape pragmas.

Rules
-----
REP001
    No wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
    ``datetime.now``/``utcnow``) in deterministic layers.  Simulated time is
    the only clock; measurement harnesses justify themselves with a pragma.
REP002
    No ambient randomness: module-level ``random.*`` draws, unseeded
    ``random.Random()``, and ``hash()`` (``PYTHONHASHSEED``-sensitive)
    escaping into deterministic layers.  RNGs must be parameter-injected.
REP003
    Order-dependence: iterating a ``set``/``dict.keys()`` expression whose
    elements feed an RNG draw, an accumulated/returned collection or a
    serialised structure, without an enclosing ``sorted()``.
REP004
    Async hygiene in :mod:`repro.net`: blocking calls (``time.sleep``, sync
    file/socket operations) inside ``async def``, and coroutine calls that
    are never awaited.
REP005
    Import layering: the DESIGN.md layer map is parsed and upward imports
    (a lower layer importing a higher one, or anything outside
    ``repro.cli``/``repro.net`` importing ``repro.net``) fail the lint.
REP006
    Public docstring coverage of the scanned tree stays at or above the
    pinned threshold (``rules.coverage`` measures it for any directory).
REP007
    The scanned tree stays within the pinned ``src/`` line budget
    (``SRC_LINE_BUDGET``); a change that raises it says why in CHANGES.md.
REP008
    Every public function, method and class of the scanned tree has a
    caller: a reference from the tree or from the ``examples/`` beside it
    (tests do not count), or a pragma whose reason names its caller.

Usage
-----
::

    python -m tools.reprolint src                 # human output, exit 1 on findings
    python -m tools.reprolint src --format json   # machine-readable report
    python -m tools.reprolint --list-rules        # registry + suppression counts
"""

from tools.reprolint.engine import FileContext, LintResult, lint_paths, lint_source
from tools.reprolint.layers import LayerMap, parse_layer_map
from tools.reprolint.pragmas import Pragma, parse_pragmas
from tools.reprolint.rules import (
    DOCSTRING_COVERAGE_THRESHOLD,
    SRC_LINE_BUDGET,
    Finding,
    Rule,
    Suppression,
    all_rules,
    get_rule,
)

__all__ = [
    "DOCSTRING_COVERAGE_THRESHOLD",
    "FileContext",
    "Finding",
    "LayerMap",
    "LintResult",
    "Pragma",
    "Rule",
    "SRC_LINE_BUDGET",
    "Suppression",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "parse_layer_map",
    "parse_pragmas",
]
