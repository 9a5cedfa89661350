"""The column reference of a trace: every message a network records, in columns.

A network's traces are :class:`~repro.dht.messages.TraceSummary` counts; each
hands the messages it counts to ``DHTNetwork.on_message``.  :class:`Columns`
is such a hook.  Set it with :func:`record_columns` and it appends one row per
message to its columns, row ``i`` of each describing message ``i``:

* ``kinds`` — a ``bytearray`` of :data:`KIND_CODES` bytes;
* ``size_bytes`` / ``sources`` / ``dests`` — integer lists, ``-1`` standing
  for a ``None`` endpoint (peer ids are never negative);
* ``timed_out`` — the indices of the messages that timed out.

:meth:`Columns.take` hands over what one operation recorded and starts the
next, so indices count from each operation's first message.  The trace pins
digest these columns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.dht.messages import MessageKind

#: One stable character per :class:`MessageKind`, in declaration order: the
#: byte a message is in the ``kinds`` column.  The trace pins digest that
#: column, so a new kind is declared last and appends one, and none is ever
#: reassigned (pinned by ``tests/net/test_codec.py``).
KIND_CODES: Dict[MessageKind, str] = dict(zip(MessageKind, "hrgGpPtTlLcdxsS"))
_BYTE_OF_KIND = {kind: ord(code) for kind, code in KIND_CODES.items()}
_KIND_OF_BYTE = {byte: kind for kind, byte in _BYTE_OF_KIND.items()}


class Message(NamedTuple):
    """One recorded message: a read-only view built from a row of the columns."""

    kind: MessageKind
    size_bytes: int
    source: Optional[int] = None
    dest: Optional[int] = None
    timed_out: bool = False


class Columns:
    """The messages handed to it as a trace's hook, one column per field."""

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.size_bytes: List[int] = []
        self.sources: List[int] = []
        self.dests: List[int] = []
        self.timed_out: List[int] = []

    def __call__(self, kind: MessageKind, size_bytes: int, source: Optional[int],
                 dest: Optional[int], timed_out: bool) -> None:
        if timed_out:
            self.timed_out.append(len(self.kinds))
        self.kinds.append(_BYTE_OF_KIND[kind])
        self.size_bytes.append(size_bytes)
        self.sources.append(-1 if source is None else source)
        self.dests.append(-1 if dest is None else dest)

    def take(self) -> "Columns":
        """The messages recorded since the last take; recording starts afresh."""
        taken = Columns()
        taken.kinds, taken.size_bytes, taken.sources, taken.dests, taken.timed_out = (
            self.kinds, self.size_bytes, self.sources, self.dests, self.timed_out)
        self.__init__()
        return taken

    def run(self, operation: Callable[..., Any], *args: Any,
            **kwargs: Any) -> Tuple[Any, "Columns"]:
        """Call ``operation``: its result, and the columns of the messages it sent
        (what was recorded before it is dropped)."""
        self.take()
        result = operation(*args, **kwargs)
        return result, self.take()

    @property
    def message_count(self) -> int:
        return len(self.kinds)

    @property
    def total_bytes(self) -> int:
        return sum(self.size_bytes)

    @property
    def timeout_count(self) -> int:
        return len(self.timed_out)

    @property
    def messages(self) -> Tuple[Message, ...]:
        """The recorded messages, in the order they were sent (a snapshot)."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Message]:
        late = set(self.timed_out)
        return (Message(_KIND_OF_BYTE[byte], size, None if source < 0 else source,
                        None if dest < 0 else dest, index in late)
                for index, (byte, size, source, dest)
                in enumerate(zip(self.kinds, self.size_bytes, self.sources, self.dests)))

    def count_by_kind(self) -> Dict[MessageKind, int]:
        """Histogram of message kinds."""
        return {_KIND_OF_BYTE[byte]: self.kinds.count(byte)
                for byte in dict.fromkeys(self.kinds)}

    def counts(self) -> Tuple[int, int, int]:
        """``(message_count, total_bytes, timeout_count)``, as a summary's."""
        return self.message_count, self.total_bytes, self.timeout_count


def record_columns(network) -> Columns:
    """Set a fresh :class:`Columns` as ``network``'s message hook, and return it."""
    network.on_message = columns = Columns()
    return columns
