"""A small discrete-event simulation engine: a clock plus a heap of callbacks.

``sim.schedule(delay, callback)`` runs a callable ``delay`` simulated seconds
from now, and ``sim.run(until)`` fires the due callbacks in time order.  A
recurring activity (churn, periodic inspection, ``p_t`` sampling) is a
callback that schedules its own next firing.  The harness drives every
update, query, churn event and fault profile through this one call.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["SimulationError", "Simulator"]


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Simulator:
    """Callback-heap simulator with a floating-point clock (seconds).

    Callbacks due at the same time fire in the order they were scheduled.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), callback))

    def run(self, until: Optional[float] = None) -> None:
        """Fire callbacks in time order until the heap empties.

        With ``until``, nothing due after it fires and the clock ends at
        ``until``; an ``until`` before the current time is refused, since the
        clock never moves backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is before the clock ({self.now})")
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self.now, _sequence, callback = heapq.heappop(heap)
            callback()
        if until is not None:
            self.now = until
