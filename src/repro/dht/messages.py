"""Message accounting for DHT operations.

The paper's evaluation reports two quantities for every algorithm:

* *communication cost* — the total number of messages needed to answer a
  request (Figures 8 and 10);
* *response time* — the elapsed time of the request, which in the SimJava
  simulation is the accumulation of per-message latency and transfer delays
  (Figures 6, 7, 9, 11, 12).

Rather than duplicating the UMS/KTS/BRK algorithms for an "analytical" and an
"event-driven" mode, every public operation of the services records the
messages it caused into one :data:`Trace` through four calls (``record``,
``record_hop``, ``record_route``, ``record_exchange``).  A
:class:`TraceSummary` keeps only the counts, in O(1) memory: what a network
records by default and a reply carries.  An :class:`OperationTrace` keeps
one column per message field for the cost model (:mod:`repro.simulation.cost`)
to price, when the harness sets ``DHTNetwork.column_traces``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

__all__ = ["KIND_CODES", "Message", "MessageKind", "MessageSizes", "OperationTrace",
           "Trace", "TraceSummary"]


class MessageKind(str, enum.Enum):
    """Classification of messages exchanged by the services.

    The names follow the paper's terminology: ``TSR`` is a timestamp request
    sent to the responsible of timestamping (Section 4.1.1), ``LOOKUP_HOP`` is
    one routing hop of the DHT's lookup service, etc.
    """

    LOOKUP_HOP = "lookup-hop"
    LOOKUP_RETRY = "lookup-retry"
    GET_REQUEST = "get-request"
    GET_REPLY = "get-reply"
    PUT_REQUEST = "put-request"
    PUT_ACK = "put-ack"
    TSR = "timestamp-request"
    TSR_REPLY = "timestamp-reply"
    LAST_TS_REQUEST = "last-ts-request"
    LAST_TS_REPLY = "last-ts-reply"
    COUNTER_TRANSFER = "counter-transfer"
    DATA_TRANSFER = "data-transfer"
    CONTROL = "control"
    #: Delta replication (anti-entropy): the destination's compact timestamp
    #: summary of a span, and the source's reply carrying only the entries
    #: that advanced past it.
    SYNC_SUMMARY = "sync-summary"
    SYNC_DELTA = "sync-delta"


#: The kinds that carry a data item (sized ``data_bytes``, not ``control_bytes``).
_DATA_KINDS = frozenset((MessageKind.GET_REPLY, MessageKind.PUT_REQUEST,
                        MessageKind.DATA_TRANSFER, MessageKind.SYNC_DELTA))


@dataclass(frozen=True)
class MessageSizes:
    """Message payload sizes in bytes used by the cost model.

    The paper does not report exact payload sizes; these defaults model small
    control messages and ~1 KiB data items, which combined with the 56 kbps
    mean bandwidth of Table 1 yields transfer delays comparable to the paper's
    absolute response times.
    """

    control_bytes: int = 128
    data_bytes: int = 1024
    #: :meth:`exchange_row` by ``((request, reply), entries)``, each computed once.
    _rows: Dict[Tuple["Exchange", int], "ExchangeRow"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def size_of(self, kind: MessageKind, entries: int = 1) -> int:
        """Payload size for a message of ``kind`` carrying ``entries`` data items."""
        return self.data_bytes * entries if kind in _DATA_KINDS else self.control_bytes

    def exchange_row(self, exchange: "Exchange", entries: int = 1) -> "ExchangeRow":
        """The kind bytes, sizes and byte total of a ``(request, reply)`` carrying ``entries``."""
        row = self._rows.get((exchange, entries))
        if row is None:
            sizes = (self.size_of(exchange[0], entries), self.size_of(exchange[1], entries))
            row = self._rows[exchange, entries] = (
                bytes(_BYTE_OF_KIND[kind] for kind in exchange), sizes, sum(sizes))
        return row


class Message(NamedTuple):
    """One network message of an operation trace.

    A read-only *view*: :class:`OperationTrace` stores columns and builds
    these only for the readers that ask for them.
    """

    kind: MessageKind
    size_bytes: int
    source: Optional[int] = None
    dest: Optional[int] = None
    timed_out: bool = False


#: One stable character per :class:`MessageKind`, in declaration order: the
#: byte a message is in a trace's ``kinds`` column.  The trace pins digest that
#: column, so a new kind is declared last and appends one, and none is ever
#: reassigned (pinned by ``tests/net/test_codec.py``).
KIND_CODES: Dict[MessageKind, str] = dict(zip(MessageKind, "hrgGpPtTlLcdxsS"))
_BYTE_OF_KIND = {kind: ord(code) for kind, code in KIND_CODES.items()}
_KIND_OF_BYTE = {byte: kind for kind, byte in _BYTE_OF_KIND.items()}
_HOP_BYTE = _BYTE_OF_KIND[MessageKind.LOOKUP_HOP]
_RETRY = KIND_CODES[MessageKind.LOOKUP_RETRY].encode("ascii")


#: A request/reply exchange by its ``(request, reply)`` kinds, and its trace row.
Exchange = Tuple[MessageKind, MessageKind]
ExchangeRow = Tuple[bytes, Tuple[int, int], int]


#: The sizes of a :class:`TraceSummary` built without (one off the wire).
_DEFAULT_SIZES = MessageSizes()


@dataclass(slots=True)
class TraceSummary:
    """The counts of an operation's messages: a trace in O(1) memory.

    ``message_count``, ``total_bytes`` and ``timeout_count`` answer as the
    same properties of an :class:`OperationTrace` fed the same calls
    (:meth:`OperationTrace.summary`); ``retry_bytes`` is the size of a
    ``LOOKUP_RETRY`` message, so the network client adds its re-sends with
    ``record_route((), retries=r, timeouts=r)`` exactly as the simulator
    records its routing retries.  ``sizes`` prices the other messages; it
    is left out of equality and off the wire (a decoded summary prices with
    the defaults).  Mutable like a trace: the items of a batch share their
    batch's one summary.
    """

    message_count: int
    total_bytes: int
    timeout_count: int
    retry_bytes: int
    sizes: MessageSizes = field(default=_DEFAULT_SIZES, compare=False, repr=False)

    def summary(self) -> "TraceSummary":
        """The summary itself (a trace and its summary answer alike)."""
        return self

    def record(self, kind: MessageKind, *, source: Optional[int] = None,
               dest: Optional[int] = None, size_bytes: Optional[int] = None,
               timed_out: bool = False) -> None:
        """Count a single message, as :meth:`OperationTrace.record`."""
        self.message_count += 1
        self.total_bytes += self.sizes.size_of(kind) if size_bytes is None else size_bytes
        if timed_out:
            self.timeout_count += 1

    def record_hop(self, source: int, dest: int) -> None:
        """Count one routing hop, as :meth:`OperationTrace.record_hop`."""
        self.message_count += 1
        self.total_bytes += self.sizes.control_bytes

    def record_route(self, path: Iterable[int], *, retries: int = 0,
                     timeouts: int = 0) -> None:
        """Count a route's hops, then ``retries`` sized ``retry_bytes``, ``timeouts``
        of them timed out, as :meth:`OperationTrace.record_route`."""
        hops = len(tuple(path)) - 1
        if hops > 0:
            self.message_count += hops
            self.total_bytes += self.sizes.control_bytes * hops
        if retries > 0:
            self.message_count += retries
            self.total_bytes += self.retry_bytes * retries
            self.timeout_count += min(max(timeouts, 0), retries)

    def record_exchange(self, exchange: Exchange, source: int, dest: int, entries: int = 1) -> None:
        """Count ``exchange`` carrying ``entries``, as :meth:`OperationTrace.record_exchange`."""
        row = self.sizes._rows.get((exchange, entries)) or self.sizes.exchange_row(exchange, entries)
        self.message_count += 2
        self.total_bytes += row[2]


class OperationTrace:
    """Records every message (and timeout) of one service operation, in columns.

    One trace threads through an operation: a UMS ``retrieve`` records its
    embedded KTS ``last_ts`` call and the ``get_h`` probes it performs on
    the same trace.  The network builds these only when asked to
    (``DHTNetwork.column_traces``); otherwise it records a
    :class:`TraceSummary`.

    One column per message field, row ``i`` of each describing message ``i``:
    ``kinds`` a ``bytearray`` of :data:`KIND_CODES` bytes, ``size_bytes`` /
    ``sources`` / ``dests`` integer lists (``-1`` stands for a ``None``
    endpoint; peer ids are never negative), ``timed_out`` the indices of the
    messages that timed out.  Readers (the cost model, the trace pins) use
    the columns directly; only the methods below may grow them, because they
    also keep the running byte tally.
    """

    def __init__(self, sizes: Optional[MessageSizes] = None) -> None:
        self.sizes = sizes if sizes is not None else MessageSizes()
        self._total_bytes = 0
        self.kinds = bytearray()
        self.size_bytes: List[int] = []
        self.sources: List[int] = []
        self.dests: List[int] = []
        self.timed_out: List[int] = []

    # ------------------------------------------------------------------ basic
    @property
    def messages(self) -> Tuple[Message, ...]:
        """The recorded messages, in the order they were sent (a snapshot)."""
        return tuple(self)

    @property
    def message_count(self) -> int:
        """Total number of messages (the paper's *communication cost*)."""
        return len(self.kinds)

    @property
    def total_bytes(self) -> int:
        """Total payload bytes across all messages."""
        return self._total_bytes

    @property
    def timeout_count(self) -> int:
        """Number of messages that hit a dead peer and timed out."""
        return len(self.timed_out)

    def summary(self) -> TraceSummary:
        """The counts of this trace, as a remote result carries them."""
        return TraceSummary(len(self.kinds), self._total_bytes, len(self.timed_out),
                            self.sizes.size_of(MessageKind.LOOKUP_RETRY), self.sizes)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Message]:
        flags = [False] * len(self.kinds)
        for index in self.timed_out:
            flags[index] = True
        return map(Message._make, zip(
            map(_KIND_OF_BYTE.__getitem__, self.kinds), self.size_bytes,
            [None if source < 0 else source for source in self.sources],
            [None if dest < 0 else dest for dest in self.dests], flags))

    # -------------------------------------------------------------- recording
    def record(self, kind: MessageKind, *, source: Optional[int] = None,
               dest: Optional[int] = None, size_bytes: Optional[int] = None,
               timed_out: bool = False) -> None:
        """Record a single message."""
        if size_bytes is None:
            size_bytes = self.sizes.size_of(kind)
        if timed_out:
            self.timed_out.append(len(self.kinds))
        self.kinds.append(_BYTE_OF_KIND[kind])
        self.size_bytes.append(size_bytes)
        self.sources.append(-1 if source is None else source)
        self.dests.append(-1 if dest is None else dest)
        self._total_bytes += size_bytes

    def record_hop(self, source: int, dest: int) -> None:
        """Record one routing hop: the append primitive of a route's walk."""
        size = self.sizes.control_bytes  # a hop is a control message
        self.kinds.append(_HOP_BYTE)
        self.size_bytes.append(size)
        self.sources.append(source)
        self.dests.append(dest)
        self._total_bytes += size

    def record_route(self, path: Iterable[int], *, retries: int = 0,
                     timeouts: int = 0) -> None:
        """Record the hop messages of a routing ``path`` (origin first), then retries.

        A path of ``n`` nodes costs ``n - 1`` hop messages; ``retries`` are the
        extra messages spent re-routing around departed fingers, ``timeouts``
        how many of those waited for a timeout (failed peers).  The overlays'
        walks record their own hops and pass an empty path for their retries,
        as the network client does for its re-sends.
        """
        nodes = list(path)
        for source, dest in zip(nodes, nodes[1:]):
            self.record_hop(source, dest)
        if retries > 0:
            size = self.sizes.size_of(MessageKind.LOOKUP_RETRY)
            first = len(self.kinds)
            self.timed_out.extend(range(first, first + min(timeouts, retries)))
            self.kinds.extend(_RETRY * retries)
            self.size_bytes.extend([size] * retries)
            self.sources.extend([-1] * retries)
            self.dests.extend([-1] * retries)
            self._total_bytes += size * retries

    def record_exchange(self, exchange: Exchange, source: int, dest: int, entries: int = 1) -> None:
        """Record ``exchange`` ``source`` <-> ``dest`` carrying ``entries``, from a memoised row."""
        kinds, sizes, total = (self.sizes._rows.get((exchange, entries))
                               or self.sizes.exchange_row(exchange, entries))
        self.kinds.extend(kinds)
        self.size_bytes.extend(sizes)
        self.sources.extend((source, dest))
        self.dests.extend((dest, source))
        self._total_bytes += total

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list; tests/dht/test_messages.py pins its two messages
    def record_request_reply(self, request_kind: MessageKind, reply_kind: MessageKind, *,
                             source: Optional[int] = None, dest: Optional[int] = None,
                             entries: int = 1) -> None:
        """Record a request message and its reply.

        A batched exchange carries ``entries`` items at once: its data-bearing
        message (the request of a put, the reply of a get) is sized for all.
        """
        self.record_exchange((request_kind, reply_kind), -1 if source is None else source,
                             -1 if dest is None else dest, entries)

    # -------------------------------------------------------------- reporting
    # reprolint: allow[REP008] reason=read view: the accounting tests (tests/api/test_accounting_parity.py, tests/dht/test_trace_pins.py) count kinds through it
    def count_by_kind(self) -> Dict[MessageKind, int]:
        """Histogram of message kinds, useful for debugging and reporting."""
        return {_KIND_OF_BYTE[byte]: self.kinds.count(byte)
                for byte in dict.fromkeys(self.kinds)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OperationTrace(messages={self.message_count}, "
                f"timeouts={self.timeout_count}, bytes={self.total_bytes})")


#: What an operation records into: its columns, or only their counts.
Trace = Union[OperationTrace, TraceSummary]
