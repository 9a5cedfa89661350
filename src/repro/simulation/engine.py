"""A small discrete-event simulation engine.

The engine follows the classic event-heap design with two usage styles:

* **callback scheduling** — ``sim.schedule(delay, callback)`` runs a callable
  at a future simulated time;
* **processes** — generator functions that ``yield`` events (typically
  ``sim.timeout(dt)``) and are resumed when the event fires, in the style of
  SimJava entities or SimPy processes.

The simulation harness uses processes for churn, update and query workloads;
the engine is also a reusable, stand-alone component (see
``examples/scalability_study.py`` and the unit tests).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

__all__ = ["Event", "Process", "SimulationError", "Simulator", "Timeout"]


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A one-shot event that callbacks and processes can wait on."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event fires (immediately if it already has)."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self, value: Any) -> None:
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed delay (created via :meth:`Simulator.timeout`)."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.delay = delay
        sim._schedule_event(self, value, delay)


class Process(Event):
    """A generator-based process.

    The generator yields :class:`Event` objects; the process resumes with the
    event's value when it fires.  The process itself is an event that fires
    (with the generator's return value) when the generator finishes, so
    processes can wait on each other.
    """

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator (did you call the function?)")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Start the process at the current simulated time.
        startup = Timeout(sim, 0.0)
        startup.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self._fire(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects")
        target.add_callback(self._resume)


class Simulator:
    """Event-heap simulator with a floating-point clock (seconds)."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, Event, Any]] = []
        self._sequence = itertools.count()

    # ----------------------------------------------------------------- events
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from the current time."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, generator, name=name)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        event = self.timeout(delay)
        event.add_callback(lambda _event: callback())
        return event

    def _schedule_event(self, event: Event, value: Any, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), event, value))

    # -------------------------------------------------------------- execution
    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire."""
        return len(self._heap)

    def step(self) -> bool:
        """Fire the next event; return ``False`` when the heap is empty."""
        if not self._heap:
            return False
        time, _seq, event, value = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        event._fire(value)
        return True

    def run(self, until: Optional[float] = None, *,
            max_events: Optional[int] = None) -> float:
        """Run until the heap empties, the clock passes ``until``, or
        ``max_events`` events have fired.  Returns the final clock value."""
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._heap[0][0]
            if until is not None and next_time > until:
                self.now = until
                break
            self.step()
            fired += 1
        if until is not None and self.now < until and not self._heap:
            self.now = until
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"
