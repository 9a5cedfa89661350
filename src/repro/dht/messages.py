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
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = ["Message", "MessageKind", "MessageSizes", "OperationTrace"]


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

    def size_of(self, kind: MessageKind) -> int:
        """Payload size for a message of ``kind``."""
        if kind in (MessageKind.GET_REPLY, MessageKind.PUT_REQUEST,
                    MessageKind.DATA_TRANSFER, MessageKind.SYNC_DELTA):
            return self.data_bytes
        return self.control_bytes


@dataclass(frozen=True)
class Message:
    """One network message recorded in an operation trace."""

    kind: MessageKind
    size_bytes: int
    source: Optional[int] = None
    dest: Optional[int] = None
    timed_out: bool = False


class OperationTrace:
    """Accumulates the messages (and timeouts) caused by one service operation.

    Traces compose: a UMS ``retrieve`` merges the trace of its embedded KTS
    ``last_ts`` call with the traces of the ``get_h`` probes it performs.
    """

    def __init__(self, sizes: Optional[MessageSizes] = None) -> None:
        self.sizes = sizes if sizes is not None else MessageSizes()
        self._messages: List[Message] = []

    # ------------------------------------------------------------------ basic
    @property
    def messages(self) -> Tuple[Message, ...]:
        """The recorded messages, in the order they were sent."""
        return tuple(self._messages)

    @property
    def message_count(self) -> int:
        """Total number of messages (the paper's *communication cost*)."""
        return len(self._messages)

    @property
    def total_bytes(self) -> int:
        """Total payload bytes across all messages."""
        return sum(message.size_bytes for message in self._messages)

    @property
    def timeout_count(self) -> int:
        """Number of messages that hit a dead peer and timed out."""
        return sum(1 for message in self._messages if message.timed_out)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    # -------------------------------------------------------------- recording
    def record(self, kind: MessageKind, *, source: Optional[int] = None,
               dest: Optional[int] = None, size_bytes: Optional[int] = None,
               timed_out: bool = False) -> Message:
        """Record a single message and return it."""
        if size_bytes is None:
            size_bytes = self.sizes.size_of(kind)
        message = Message(kind=kind, size_bytes=size_bytes, source=source,
                          dest=dest, timed_out=timed_out)
        self._messages.append(message)
        return message

    def record_route(self, path: Iterable[int], *, retries: int = 0,
                     timeouts: int = 0) -> None:
        """Record the hop messages of a routing path.

        Parameters
        ----------
        path:
            The sequence of node identifiers visited, starting at the origin.
            A path of ``n`` nodes costs ``n - 1`` hop messages.
        retries:
            Extra messages spent re-routing around departed fingers.
        timeouts:
            How many of those retries waited for a timeout (failed peers).
        """
        nodes = list(path)
        for source, dest in zip(nodes, nodes[1:]):
            self.record(MessageKind.LOOKUP_HOP, source=source, dest=dest)
        for index in range(retries):
            self.record(MessageKind.LOOKUP_RETRY, timed_out=index < timeouts)

    def record_request_reply(self, request_kind: MessageKind,
                             reply_kind: MessageKind, *,
                             source: Optional[int] = None,
                             dest: Optional[int] = None) -> None:
        """Record a request message and its reply."""
        self.record(request_kind, source=source, dest=dest)
        self.record(reply_kind, source=dest, dest=source)

    def extend(self, messages: Iterable[Message]) -> None:
        """Append already-built messages (how the wire codec rebuilds a trace)."""
        self._messages.extend(messages)

    def merge(self, other: "OperationTrace") -> "OperationTrace":
        """Append all messages of ``other`` to this trace (returns ``self``)."""
        self._messages.extend(other._messages)
        return self

    # -------------------------------------------------------------- reporting
    def count_by_kind(self) -> dict:
        """Histogram of message kinds, useful for debugging and reporting."""
        histogram: dict = {}
        for message in self._messages:
            histogram[message.kind] = histogram.get(message.kind, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OperationTrace(messages={self.message_count}, "
                f"timeouts={self.timeout_count}, bytes={self.total_bytes})")
