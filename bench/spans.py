"""In-memory span recording around public callables, installed from outside.

A span is ``(name, start, end, parent, op id)`` plus one optional integer
value.  Spans are recorded by wrappers that :class:`Patches` installs on the
attribute a callable is *looked up* through (a class attribute for methods,
a module attribute for functions) and removes again afterwards; nothing in
``src/`` knows about them.

Each thread appends to its own flat ``array('q')`` (seven 64-bit slots per
span, ~56 bytes, so a traced run of a million spans stays under 60 MB) and
keeps its own stack.  A span opened on an empty stack of a thread other than
the driver's is *adopted* by the driver thread's innermost open span: the
client's event-loop thread only runs while the driver thread is blocked
inside ``NetClient.request``, so that is the span that caused it.

``perf_counter_ns`` reads ``CLOCK_MONOTONIC``, which all processes of one
machine share, so spans recorded in the server process can be laid inside
the client's request span by :func:`analyse`.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["CHURN_OP", "JOIN_UNDER", "NO_OP", "LayerTotals", "NameTotals",
           "Patches", "Recorder", "analyse", "jsonable", "layer_of"]

#: Slots per span in a thread buffer.
_WIDTH = 7
_NAME, _START, _END, _PARENT, _ADOPTER, _OP, _VALUE = range(_WIDTH)

#: ``op`` of spans recorded outside any measured operation.
NO_OP = -1
#: ``op`` of spans caused by a churn event (join / leave / fail) of the driver.
CHURN_OP = -2

#: The client span a server process's spans are laid under.
JOIN_UNDER = "client.request"

Hook = Callable[..., None]


class Recorder:
    """Records spans for the wrappers it makes.

    ``op`` is the identifier stamped on every span as it opens; the driver
    sets it before each operation (the server-side hooks set it from the
    request id on the wire).  Recording only happens while ``enabled``.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.buffers: List["array[int]"] = []
        self.op = NO_OP
        self.enabled = False
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._driver_stack: List[int] = []
        self._lock = threading.Lock()

    def start(self) -> None:
        """Enable recording; the calling thread becomes the driver thread."""
        _buffer, stack = self._thread_state()
        self._driver_stack = stack
        self.enabled = True

    def stop(self) -> None:
        """Disable recording (the wrappers stay installed but pass through)."""
        self.enabled = False

    def _thread_state(self) -> Tuple["array[int]", List[int]]:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = (array("q"), [])
                self.buffers.append(state[0])
            self._local.state = state
            return state

    def wrap(self, name: str, function: Callable[..., Any], *,
             before: Optional[Hook] = None,
             after: Optional[Hook] = None) -> Callable[..., Any]:
        """A wrapper recording one span named ``name`` per call of ``function``.

        ``before(recorder, args, kwargs)`` runs ahead of the span (it may set
        ``recorder.op``); ``after(buffer, position, result)`` runs once the
        span closed and may fill ``buffer[position + 6]`` with a value or
        overwrite the op at ``buffer[position + 5]``.
        """
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        recorder = self
        now = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return function(*args, **kwargs)
            buffer, stack = recorder._thread_state()
            if before is not None:
                before(recorder, args, kwargs)
            position = len(buffer)
            if stack:
                parent, adopter = stack[-1], -1
            else:
                driver = recorder._driver_stack
                parent = -1
                adopter = driver[-1] if driver and driver is not stack else -1
            buffer.extend((name_id, 0, 0, parent, adopter, recorder.op, -1))
            stack.append(position)
            buffer[position + _START] = now()
            try:
                result = function(*args, **kwargs)
            finally:
                buffer[position + _END] = now()
                stack.pop()
            if after is not None:
                after(buffer, position, result)
            return result

        return wrapper

    def dump(self) -> Dict[str, Any]:
        """The recorded spans: ``{"names": [...], "threads": [array, ...]}``.

        ``threads[0]`` is the driver thread when :meth:`start` was called
        before any other thread recorded (always the case here).  Each thread
        is a flat sequence, seven integers per span: name index, start ns,
        end ns, parent position in the same sequence (-1: none), adopting
        position in ``threads[0]`` (-1: none), op id, value (-1: none).
        The threads stay packed arrays; :func:`jsonable` turns them into
        lists where a dump is written out.
        """
        return {"names": list(self.names), "threads": list(self.buffers)}


def jsonable(dump: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """``dump`` with its threads as plain lists (``None`` stays ``None``)."""
    if dump is None:
        return None
    return {"names": dump["names"],
            "threads": [list(thread) for thread in dump["threads"]]}


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attribute: str,
                make: Callable[[Any], Any]) -> None:
        """Set ``owner.attribute = make(current value)``, remembering the old one.

        When ``owner`` only inherits the attribute, restoring deletes the
        override instead of pinning a copy of the inherited value.
        """
        own = vars(owner)
        self._undo.append((owner, attribute, attribute in own,
                           own.get(attribute)))
        setattr(owner, attribute, make(getattr(owner, attribute)))

    def patched(self) -> List[Tuple[Any, str]]:
        """The ``(owner, attribute)`` pairs currently replaced."""
        return [(owner, attribute) for owner, attribute, _own, _old in self._undo]

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attribute, was_own, old = self._undo.pop()
            if was_own:
                setattr(owner, attribute, old)
            else:
                delattr(owner, attribute)


# ------------------------------------------------------------------ analysis
def layer_of(name: str) -> str:
    """The layer of a span name (the part before the first dot)."""
    return name.partition(".")[0]


@dataclass
class NameTotals:
    """Sums over the spans of one name that belong to measured operations."""

    count: int = 0
    duration_ns: int = 0
    self_ns: int = 0
    valued: int = 0
    value_sum: int = 0


@dataclass
class LayerTotals:
    """What :func:`analyse` hands to the per-layer metric code."""

    by_name: Dict[str, NameTotals] = field(default_factory=dict)
    churn_by_name: Dict[str, NameTotals] = field(default_factory=dict)

    def name(self, name: str) -> NameTotals:
        """Totals of one span name over measured operations (zeros if absent)."""
        return self.by_name.get(name, NameTotals())

    def churn(self, name: str) -> NameTotals:
        """Totals of one span name over the driver's churn events."""
        return self.churn_by_name.get(name, NameTotals())

    def layer(self, layer: str) -> NameTotals:
        """Totals of every span of ``layer`` over measured operations."""
        total = NameTotals()
        for name, totals in self.by_name.items():
            if layer_of(name) == layer:
                total.count += totals.count
                total.duration_ns += totals.duration_ns
                total.self_ns += totals.self_ns
        return total

    def self_ns(self) -> int:
        """Self time of all spans of measured operations, every layer."""
        return sum(totals.self_ns for totals in self.by_name.values())


class _Columns:
    """Spans of one or two dumps as packed columns with global parent indices."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name, self.start, self.end, self.parent, self.op, self.value = (
            array("q") for _ in range(6))

    def __len__(self) -> int:
        return len(self.name)

    def extend(self, dump: Dict[str, Any]) -> None:
        """Append ``dump``'s spans; parents become indices into the columns."""
        name_base = len(self.names)
        self.names.extend(dump["names"])
        bases: List[int] = []
        base = len(self)
        for thread in dump["threads"]:
            bases.append(base)
            base += len(thread) // _WIDTH
        for thread, thread_base in zip(dump["threads"], bases):
            for position in range(0, len(thread), _WIDTH):
                (name, start, end, parent, adopter, op,
                 value) = thread[position:position + _WIDTH]
                if parent >= 0:
                    parent = thread_base + parent // _WIDTH
                elif adopter >= 0:
                    parent = bases[0] + adopter // _WIDTH
                self.name.append(name_base + name)
                self.start.append(start)
                self.end.append(end)
                self.parent.append(parent)
                self.op.append(op)
                self.value.append(value)


def analyse(client: Dict[str, Any], server: Optional[Dict[str, Any]] = None,
            *, request_offset: int = 0, operations: int = 0) -> LayerTotals:
    """Compute per-name counts, durations and self times.

    ``server`` is the span dump of the server process; its spans carry the
    wire request id as op, and ``request id - request_offset`` is the
    driver's op index.  Every server span without a parent is placed under
    the client's :data:`JOIN_UNDER` span of the same op ("joined by request
    order").  A span's self time is its duration minus the part of it that
    its children cover; children are clipped to the parent's interval, so a
    clock disagreement between the processes shows as lost coverage in
    ``env.layer_sum_share`` instead of as negative time.
    """
    spans = _Columns()
    spans.extend(client)
    client_spans = len(spans)
    names, parents, ops = spans.names, spans.parent, spans.op
    if server is not None:
        spans.extend(server)
        join_points = {ops[index]: index for index in range(client_spans)
                       if names[spans.name[index]] == JOIN_UNDER}
        for index in range(client_spans, len(spans)):
            if parents[index] < 0:
                op = ops[index] - request_offset
                ops[index] = op if 0 <= op < operations else NO_OP
                parents[index] = join_points.get(ops[index], -1)
    # A span belongs to the operation of its outermost ancestor.  Parents
    # precede their children in the columns; a joined server root keeps the
    # op it was given above.
    for index, parent in enumerate(parents):
        if parent >= 0 and (index < client_spans or parent >= client_spans):
            ops[index] = ops[parent]
    starts, ends = spans.start, spans.end
    covered = array("q", bytes(8 * len(spans)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            overlap = (min(ends[index], ends[parent])
                       - max(starts[index], starts[parent]))
            if overlap > 0:
                covered[parent] += overlap
    totals = LayerTotals()
    for index, op in enumerate(ops):
        if op >= 0:
            table = totals.by_name
        elif op == CHURN_OP:
            table = totals.churn_by_name
        else:
            continue
        name = names[spans.name[index]]
        entry = table.get(name)
        if entry is None:
            entry = table[name] = NameTotals()
        duration = ends[index] - starts[index]
        entry.count += 1
        entry.duration_ns += duration
        entry.self_ns += max(0, duration - covered[index])
        if spans.value[index] >= 0:
            entry.valued += 1
            entry.value_sum += spans.value[index]
    return totals
