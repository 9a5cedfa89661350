"""The workload's keys, payloads and scheduled events (Section 5.1).

Each replicated data item is updated by a Poisson process (default rate
1/hour, swept in Figure 12); queries requesting a key are issued at times
uniformly distributed over the experiment and the reported metrics are the
averages over those queries.  The schedules themselves come from a
:class:`~repro.simulation.scenarios.Scenario`: the paper's workload is the
``uniform`` scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["ScheduledEvent", "default_keys", "payload_for"]


def default_keys(count: int, prefix: str = "item") -> List[str]:
    """The key population used by the harness: ``item-0 .. item-(count-1)``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [f"{prefix}-{index}" for index in range(count)]


def payload_for(key: Any, sequence: int) -> dict:
    """A deterministic update payload: the ``sequence``-th value written to ``key``."""
    return {"key": key, "sequence": sequence, "body": f"value-{key}-{sequence}"}


@dataclass(frozen=True)
class ScheduledEvent:
    """One scheduled workload event."""

    time: float
    key: Any
