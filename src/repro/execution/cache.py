"""On-disk run cache keyed by :attr:`RunPoint.content_hash`.

One JSON file per point, storing the point's own record next to its
serialised :class:`~repro.simulation.results.RunResult`.
A hit requires the stored point content *and* the recording package version
to match exactly (guarding against hash collisions, stale/corrupt files and
results produced by an older implementation — any mismatch or parse failure
is treated as a miss, never an error), so a cached re-run returns results
bit-identical to what re-executing under the current version would produce.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

from repro.execution.plan import RunPoint
from repro.simulation.results import RunResult

__all__ = ["RunCache"]


def _current_version() -> str:
    """The package version stamped into (and required of) cache entries.

    Imported lazily: :mod:`repro` initialises :mod:`repro.execution`, so a
    module-level import here would be circular.
    """
    from repro import __version__

    return __version__


class RunCache:
    """Directory-backed store of executed run points."""

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, point: RunPoint) -> pathlib.Path:
        """The cache file of ``point`` (exists only after :meth:`store`)."""
        return self.directory / f"{point.content_hash}.json"

    def load(self, point: RunPoint) -> Optional[RunResult]:
        """The cached result of ``point``, or ``None`` on a miss."""
        path = self.path_for(point)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("version") != _current_version():
            # A different repro version may simulate differently; serving its
            # results as current ones would fake reproducibility.
            return None
        # Compare through a JSON round-trip: the in-memory content may hold
        # tuples (e.g. a spec's fault list) that serialise as JSON arrays.
        expected = json.loads(json.dumps(point.content(), default=str))
        if payload.get("point") != expected:
            return None
        try:
            return RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, point: RunPoint, result: RunResult) -> pathlib.Path:
        """Write the executed result of ``point``; returns the file path."""
        path = self.path_for(point)
        payload = {"version": _current_version(),
                   "point": point.content(),
                   "result": result.to_dict()}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path
