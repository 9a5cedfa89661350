"""Message accounting for DHT operations.

The paper's evaluation reports two quantities for every algorithm:

* *communication cost* — the total number of messages needed to answer a
  request (Figures 8 and 10);
* *response time* — the elapsed time of the request, which in the SimJava
  simulation is the accumulation of per-message latency and transfer delays
  (Figures 6, 7, 9, 11, 12).

Rather than duplicating the UMS/KTS/BRK algorithms for an "analytical" and an
"event-driven" mode, every public operation of the services records the exact
sequence of messages it caused into an :class:`OperationTrace`.  A cost model
(:mod:`repro.simulation.cost`) then converts a trace into a duration, and the
simulation harness schedules the completion of the operation accordingly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, MutableSequence, NamedTuple, Optional, Tuple

__all__ = ["KIND_CODES", "Message", "MessageKind", "MessageSizes", "OperationTrace"]


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

    def size_of(self, kind: MessageKind, entries: int = 1) -> int:
        """Payload size for a message of ``kind`` carrying ``entries`` data items."""
        return self.data_bytes * entries if kind in _DATA_KINDS else self.control_bytes


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
#: byte a message is in a trace's ``kinds`` column, in memory and on the wire.
#: Codes are wire protocol — a new kind is declared last and appends one, none
#: is ever reassigned (pinned by ``tests/net/test_codec.py``).
KIND_CODES: Dict[MessageKind, str] = dict(zip(MessageKind, "hrgGpPtTlLcdxsS"))
_BYTE_OF_KIND = {kind: ord(code) for kind, code in KIND_CODES.items()}
_KIND_OF_BYTE = {byte: kind for kind, byte in _BYTE_OF_KIND.items()}
_HOP = KIND_CODES[MessageKind.LOOKUP_HOP].encode("ascii")
_RETRY = KIND_CODES[MessageKind.LOOKUP_RETRY].encode("ascii")


#: An integer column of a trace (a list, or an adopted ``array('q')``), and
#: the five columns together: kinds, size_bytes, sources, dests, timed_out.
Column = MutableSequence[int]
Columns = Tuple[bytearray, Column, Column, Column, List[int]]


class OperationTrace:
    """Accumulates the messages (and timeouts) caused by one service operation.

    Traces compose: a UMS ``retrieve`` merges the trace of its embedded KTS
    ``last_ts`` call with the traces of the ``get_h`` probes it performs.

    One column per message field, row ``i`` of each describing message ``i``
    — the layout the wire codec ships as is: ``kinds`` a ``bytearray`` of
    :data:`KIND_CODES` bytes, ``size_bytes`` / ``sources`` / ``dests`` integer
    columns (``-1`` stands for a ``None`` endpoint; peer ids are never
    negative), ``timed_out`` the indices of the messages that timed out.
    Readers (codec, cost model) use the columns directly; only the methods
    below may grow them, because they also keep the running byte tally.
    ``columns`` adopts five such columns uncopied: the caller vouches for
    equal lengths, known kind bytes and in-range indices (the wire codec
    checks what arrives from outside).
    """

    def __init__(self, sizes: Optional[MessageSizes] = None,
                 columns: Optional[Columns] = None) -> None:
        self.sizes = sizes if sizes is not None else MessageSizes()
        if columns is None:
            columns = (bytearray(), [], [], [], [])
        self.kinds, self.size_bytes, self.sources, self.dests, self.timed_out = columns
        self._total_bytes = sum(self.size_bytes)

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

    def record_route(self, path: Iterable[int], *, retries: int = 0,
                     timeouts: int = 0) -> None:
        """Record the hop messages of a routing ``path`` (origin first).

        A path of ``n`` nodes costs ``n - 1`` hop messages; ``retries`` are the
        extra messages spent re-routing around departed fingers, ``timeouts``
        how many of those waited for a timeout (failed peers).
        """
        nodes = tuple(path)
        hops = max(0, len(nodes) - 1)
        retries = max(0, retries)
        hop_bytes = self.sizes.size_of(MessageKind.LOOKUP_HOP)
        retry_bytes = self.sizes.size_of(MessageKind.LOOKUP_RETRY)
        first_retry = len(self.kinds) + hops
        self.timed_out.extend(range(first_retry, first_retry + min(timeouts, retries)))
        self.kinds.extend(_HOP * hops + _RETRY * retries)
        self.size_bytes.extend([hop_bytes] * hops + [retry_bytes] * retries)
        self.sources.extend(nodes[:hops] + (-1,) * retries)
        self.dests.extend(nodes[1:] + (-1,) * retries)
        self._total_bytes += hop_bytes * hops + retry_bytes * retries

    def record_request_reply(self, request_kind: MessageKind, reply_kind: MessageKind, *,
                             source: Optional[int] = None, dest: Optional[int] = None,
                             entries: int = 1) -> None:
        """Record a request message and its reply.

        A batched exchange carries ``entries`` items at once: its data-bearing
        message (the request of a put, the reply of a get) is sized for all.
        """
        request_bytes = self.sizes.size_of(request_kind, entries)
        reply_bytes = self.sizes.size_of(reply_kind, entries)
        source = -1 if source is None else source
        dest = -1 if dest is None else dest
        self.kinds.extend((_BYTE_OF_KIND[request_kind], _BYTE_OF_KIND[reply_kind]))
        self.size_bytes.extend((request_bytes, reply_bytes))
        self.sources.extend((source, dest))
        self.dests.extend((dest, source))
        self._total_bytes += request_bytes + reply_bytes

    def extend(self, messages: Iterable[Message]) -> None:
        """Append already-built messages, sizes and flags as given."""
        for kind, size_bytes, source, dest, timed_out in messages:
            self.record(kind, source=source, dest=dest, size_bytes=size_bytes,
                        timed_out=timed_out)

    def merge(self, other: "OperationTrace") -> "OperationTrace":
        """Append all messages of ``other`` to this trace (returns ``self``)."""
        offset = len(self.kinds)
        self.timed_out.extend([index + offset for index in other.timed_out])
        self.kinds.extend(other.kinds)
        self.size_bytes.extend(other.size_bytes)
        self.sources.extend(other.sources)
        self.dests.extend(other.dests)
        self._total_bytes += other._total_bytes
        return self

    # -------------------------------------------------------------- reporting
    def count_by_kind(self) -> Dict[MessageKind, int]:
        """Histogram of message kinds, useful for debugging and reporting."""
        return {_KIND_OF_BYTE[byte]: self.kinds.count(byte)
                for byte in dict.fromkeys(self.kinds)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OperationTrace(messages={self.message_count}, "
                f"timeouts={self.timeout_count}, bytes={self.total_bytes})")
