"""Optional numpy acceleration for the columnar overlays (``repro[fast]``).

The helper here has a pure-python fallback that produces *identical*
results, so installing numpy changes wall-clock time only — never routes,
traces or RNG streams.  The import is attempted once at module load; nothing
else in the package touches numpy directly, which keeps the optional
dependency confined to this single seam (and keeps the simulator stdlib-only
by default, per the project's determinism rules).

:func:`successor_positions` is the only numpy seam.  It matches
``bisect.bisect_left`` exactly: ``numpy.searchsorted(..., side="left")`` is
specified to return the same insertion points.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Any, List, Optional, Sequence

__all__ = ["HAVE_NUMPY", "successor_positions"]

_np: Optional[Any]
try:  # pragma: no cover - exercised only when the extra is installed
    import numpy as _numpy_module
except ImportError:
    _np = None
else:  # pragma: no cover - exercised only when the extra is installed
    _np = _numpy_module

#: Whether the ``repro[fast]`` extra (numpy) is available in this interpreter.
HAVE_NUMPY = _np is not None

#: Below this many packed entries the pure-python path wins: crossing into
#: numpy costs more than the scan it replaces.
_NUMPY_MIN_ENTRIES = 64


def _as_uint64(packed: "array[int]") -> Any:
    """Zero-copy uint64 view of a packed ``array('Q')`` column."""
    assert _np is not None
    return _np.frombuffer(packed, dtype=_np.uint64)


def successor_positions(
    members: "array[int]", targets: Sequence[int]
) -> List[int]:
    """Ring-successor index of each target point in a sorted member column.

    For each target ``t`` this is ``bisect_left(members, t) % len(members)``:
    the index of the first member ``>= t``, wrapping to index 0 past the top
    of the identifier space — Chord's successor rule.  ``members`` must be
    non-empty and sorted ascending.
    """
    size = len(members)
    if (
        _np is not None
        and size >= _NUMPY_MIN_ENTRIES
        and members.itemsize == 8
    ):  # pragma: no cover - exercised only when the extra is installed
        positions = _np.searchsorted(
            _as_uint64(members),
            _np.asarray(targets, dtype=_np.uint64),
            side="left",
        )
        return [int(position) % size for position in positions]
    return [bisect.bisect_left(members, target) % size for target in targets]
