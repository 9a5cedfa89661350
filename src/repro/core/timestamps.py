"""Per-key logical timestamps generated by KTS (Section 3.1, Definition 2).

A timestamp is a pair ``(key, value)``.  KTS guarantees *monotonicity*: two
timestamps generated for the same key are ordered by generation time.  There
is deliberately **no** order across keys, and comparing timestamps of
different keys raises :class:`~repro.core.errors.IncomparableTimestampsError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

from repro.core.errors import IncomparableTimestampsError
from repro.dht.model import slotted_init

__all__ = ["Timestamp"]


@functools.total_ordering
@slotted_init
@dataclass(frozen=True, slots=True)
class Timestamp:
    """A logical timestamp for one key.

    Attributes
    ----------
    key:
        The key the timestamp was generated for.
    value:
        The counter value; KTS generates strictly increasing values per key,
        starting at 1.
    """

    key: Any
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"timestamp value must be >= 0, got {self.value}")

    def _check_comparable(self, other: "Timestamp") -> None:
        if self.key != other.key:
            raise IncomparableTimestampsError(self.key, other.key)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        self._check_comparable(other)
        return self.value < other.value

    def __gt__(self, other: object) -> bool:
        # Defined, not derived: replica reconciliation compares on every put.
        if not isinstance(other, Timestamp):
            return NotImplemented
        self._check_comparable(other)
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.key == other.key and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.key, self.value))

    def next(self) -> "Timestamp":
        """The next timestamp in this key's sequence."""
        return Timestamp(key=self.key, value=self.value + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timestamp({self.key!r}, {self.value})"
