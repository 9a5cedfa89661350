"""Parse DESIGN.md's layer map into an import-layering contract (REP005).

The architecture document is the single source of truth for which layer sits
where; this module parses the fenced diagram under the ``## Layer map``
heading rather than duplicating the ranking in code.  A diagram line defines
a layer when (after stripping indentation) it *starts* with a module token —
``repro.<something>``, ``examples/`` or ``benchmarks/`` — so the box-drawing
connector lines and wrapped parenthetical descriptions are ignored.  Brace
groups expand (``repro.dht.{chord,can,kademlia}`` names three modules), and
every module named on the same diagram line shares one rank (rank 0 is the
top of the stack).

The contract checked by REP005:

* a module may import its own layer or any layer *below* it; importing a
  layer above is an upward import and a finding;
* ``repro.net`` plugs in beside the stack (see DESIGN.md): only
  ``repro.cli`` (and :mod:`repro.net` itself, e.g. the client importing the
  codec) may import it, regardless of rank;
* importing the bare package root ``repro`` (for ``__version__``) is
  rank-exempt — the root is version metadata plus re-exports;
* a parent package not named in the map inherits the *lowest* (bottom-most)
  rank of its mapped children, so e.g. ``repro.dht.messages`` sits with the
  deepest ``repro.dht`` entries.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

__all__ = ["LayerMap", "parse_layer_map"]

#: Modules that may import ``repro.net`` from outside the package itself.
NET_IMPORTERS = ("repro.cli", "repro.net")

_TOKEN_RE = re.compile(r"^(repro\.[\w.{},]+|examples/|benchmarks/)")
_BRACE_RE = re.compile(r"^(?P<head>[\w.]+)\.\{(?P<group>[\w,]+)\}$")


@dataclass
class LayerMap:
    """Module-prefix → rank table (rank 0 = top of the stack)."""

    ranks: Dict[str, int] = field(default_factory=dict)
    source: Optional[pathlib.Path] = None

    @property
    def bottom(self) -> int:
        """The deepest rank in the map (0 when the map is empty)."""
        return max(self.ranks.values()) if self.ranks else 0

    def rank_of(self, module: str) -> Optional[int]:
        """The rank of ``module`` by longest mapped prefix (``None``: unmapped)."""
        parts = module.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.ranks:
                return self.ranks[prefix]
        return None

    def is_upward(self, importer: str, imported: str) -> bool:
        """Whether ``importer`` importing ``imported`` crosses a layer upward."""
        if imported == "repro":
            return False  # package root: version metadata, rank-exempt
        if imported == importer or imported.startswith(importer + "."):
            return False  # a package aggregating its own submodules
        importer_rank = self.rank_of(importer)
        imported_rank = self.rank_of(imported)
        if importer_rank is None or imported_rank is None:
            return False
        return importer_rank > imported_rank

    def net_violation(self, importer: str, imported: str) -> bool:
        """Whether this import breaches the ``repro.net`` isolation rule."""
        if not (imported == "repro.net" or imported.startswith("repro.net.")):
            return False
        return not any(importer == allowed or importer.startswith(allowed + ".")
                       for allowed in NET_IMPORTERS)


def _expand(token: str) -> List[str]:
    """Expand ``pkg.{a,b}`` brace groups; plain tokens pass through."""
    match = _BRACE_RE.match(token)
    if match is None:
        return [token]
    head = match.group("head")
    return [f"{head}.{name}" for name in match.group("group").split(",") if name]


def parse_layer_map(design_path: Union[str, pathlib.Path]) -> LayerMap:
    """Build the :class:`LayerMap` from DESIGN.md's ``## Layer map`` diagram.

    Raises :class:`ValueError` when the heading or its fenced block is
    missing — the layering rule must never silently pass because the
    document moved.
    """
    path = pathlib.Path(design_path)
    text = path.read_text(encoding="utf-8")
    heading = re.search(r"^##\s+Layer map\s*$", text, flags=re.MULTILINE)
    if heading is None:
        raise ValueError(f"{path}: no '## Layer map' heading")
    fence = re.search(r"```\n(?P<body>.*?)```", text[heading.end():],
                      flags=re.DOTALL)
    if fence is None:
        raise ValueError(f"{path}: no fenced diagram under '## Layer map'")

    layer_map = LayerMap(source=path)
    rank = 0
    for raw_line in fence.group("body").splitlines():
        line = raw_line.strip()
        if not _TOKEN_RE.match(line):
            continue  # connector / description line
        found_any = False
        for word in re.split(r"[\s─►│]+", line):
            if not (word.startswith("repro.") or word in ("examples/",
                                                          "benchmarks/")):
                continue
            for module in _expand(word.rstrip("/")):
                layer_map.ranks.setdefault(module, rank)
                found_any = True
        if found_any:
            rank += 1

    # Parent packages inherit the bottom-most rank of their mapped children
    # (e.g. ``repro.dht`` → the protocol-implementation rank), so sibling
    # modules the diagram does not name individually still get a layer.
    parents: Dict[str, int] = {}
    for module, module_rank in layer_map.ranks.items():
        parts = module.split(".")
        for cut in range(1, len(parts)):
            parent = ".".join(parts[:cut])
            if parent == "repro" or parent in layer_map.ranks:
                continue
            parents[parent] = max(parents.get(parent, 0), module_rank)
    layer_map.ranks.update(parents)
    return layer_map
