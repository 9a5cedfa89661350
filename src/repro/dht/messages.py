"""Message accounting for DHT operations.

The paper's evaluation reports two quantities for every algorithm:

* *communication cost* — the total number of messages needed to answer a
  request (Figures 8 and 10);
* *response time* — the elapsed time of the request, which in the SimJava
  simulation is the accumulation of per-message latency and transfer delays
  (Figures 6, 7, 9, 11, 12).

Rather than duplicating the UMS/KTS/BRK algorithms for an "analytical" and an
"event-driven" mode, every public operation of the services records the
messages it caused into one :class:`TraceSummary` through four calls
(``record``, ``record_hop``, ``record_route``, ``record_exchange``).  The
summary keeps only the counts, in O(1) memory, and hands each message to its
``on_message`` hook, when one is set, as it counts it: the simulation
harness sets a hook that prices each message of a retrieve with the cost
model (:meth:`repro.simulation.cost.NetworkCostModel.message_delay`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

__all__ = ["MessageHook", "MessageKind", "MessageSizes", "TraceSummary"]


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
        """The request size, reply size and byte total of a ``(request, reply)``
        carrying ``entries``."""
        row = self._rows.get((exchange, entries))
        if row is None:
            request, reply = self.size_of(exchange[0], entries), self.size_of(exchange[1], entries)
            row = self._rows[exchange, entries] = (request, reply, request + reply)
        return row


#: A request/reply exchange by its ``(request, reply)`` kinds, and its sizes:
#: the request's, the reply's and their total.
Exchange = Tuple[MessageKind, MessageKind]
ExchangeRow = Tuple[int, int, int]

#: What a trace hands each message it counts: ``(kind, size_bytes, source,
#: dest, timed_out)``, with ``None`` (or ``-1``) for an endpoint without a peer.
MessageHook = Callable[[MessageKind, int, Optional[int], Optional[int], bool], Any]


#: The sizes of a :class:`TraceSummary` built without (one off the wire).
_DEFAULT_SIZES = MessageSizes()


@dataclass(slots=True)
class TraceSummary:
    """The counts of an operation's messages: a trace in O(1) memory.

    One trace threads through an operation: a UMS ``retrieve`` records its
    embedded KTS ``last_ts`` call and the ``get_h`` probes it performs on
    the same trace.  ``retry_bytes`` is the size of a ``LOOKUP_RETRY``
    message, so the network client adds its re-sends with
    ``record_route((), retries=r, timeouts=r)`` exactly as the simulator
    records its routing retries.  ``sizes`` prices the other messages.
    ``on_message``, when set, is called once per message, in the order the
    messages are sent, with ``(kind, size_bytes, source, dest, timed_out)``.
    ``sizes`` and ``on_message`` are left out of equality and off the wire
    (a decoded summary prices with the defaults and has no hook).  Mutable:
    the items of a batch share their batch's one summary.
    """

    message_count: int
    total_bytes: int
    timeout_count: int
    retry_bytes: int
    sizes: MessageSizes = field(default=_DEFAULT_SIZES, compare=False, repr=False)
    on_message: Optional[MessageHook] = field(default=None, compare=False, repr=False)

    def record(self, kind: MessageKind, *, source: Optional[int] = None,
               dest: Optional[int] = None, size_bytes: Optional[int] = None,
               timed_out: bool = False) -> None:
        """Count a single message."""
        if size_bytes is None:
            size_bytes = self.sizes.size_of(kind)
        self.message_count += 1
        self.total_bytes += size_bytes
        if timed_out:
            self.timeout_count += 1
        if self.on_message is not None:
            self.on_message(kind, size_bytes, source, dest, timed_out)

    def record_hop(self, source: int, dest: int) -> None:
        """Count one routing hop, a control message: the primitive of a route's walk."""
        self.message_count += 1
        self.total_bytes += self.sizes.control_bytes
        if self.on_message is not None:
            self.on_message(MessageKind.LOOKUP_HOP, self.sizes.control_bytes, source, dest,
                            False)

    def record_route(self, path: Iterable[int], *, retries: int = 0,
                     timeouts: int = 0) -> None:
        """Count the hops of a routing ``path`` (origin first), then retries.

        A path of ``n`` nodes costs ``n - 1`` hop messages; ``retries`` are
        the extra messages spent re-routing around departed fingers, each
        sized ``retry_bytes``, and the first ``timeouts`` of them waited for
        a timeout (failed peers).  The overlays' walks record their own hops
        and pass an empty path for their retries, as the network client does
        for its re-sends.
        """
        nodes = tuple(path)
        hops = len(nodes) - 1
        if hops > 0:
            self.message_count += hops
            self.total_bytes += self.sizes.control_bytes * hops
        if retries > 0:
            self.message_count += retries
            self.total_bytes += self.retry_bytes * retries
            self.timeout_count += min(max(timeouts, 0), retries)
        if self.on_message is not None:
            hook, hop_bytes = self.on_message, self.sizes.control_bytes
            for source, dest in zip(nodes, nodes[1:]):
                hook(MessageKind.LOOKUP_HOP, hop_bytes, source, dest, False)
            for index in range(retries):
                hook(MessageKind.LOOKUP_RETRY, self.retry_bytes, None, None, index < timeouts)

    def record_exchange(self, exchange: Exchange, source: int, dest: int, entries: int = 1) -> None:
        """Count ``exchange``, a request ``source`` -> ``dest`` and its reply,
        carrying ``entries``, from a memoised row."""
        row = self.sizes._rows.get((exchange, entries)) or self.sizes.exchange_row(exchange, entries)
        self.message_count += 2
        self.total_bytes += row[2]
        if self.on_message is not None:
            self.on_message(exchange[0], row[0], source, dest, False)
            self.on_message(exchange[1], row[1], dest, source, False)


def _retired(*_args: Any, **_kwargs: Any) -> Any:
    raise NotImplementedError("the column trace is retired: set DHTNetwork.on_message")


# reprolint: allow[REP008] reason=bench/layers.py:56 wraps these three by attribute; ROADMAP item 1 deletes it with that list
class OperationTrace:
    """Retired: a network records :class:`TraceSummary` objects only."""

    record = record_route = record_request_reply = _retired
