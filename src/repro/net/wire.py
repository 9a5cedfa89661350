"""The binary frame bodies of the service-mode wire protocol.

The transport's frames are ``4-byte big-endian length || body`` (see
:mod:`repro.net.codec`).  A body is the tagged encoding of one payload
dict, behind a one-byte marker:

========  =============================================================
marker    body
========  =============================================================
``0x01``  the tagged encoding itself: a self-contained frame, outside any
          stream
``0x02``  the next piece of the connection's deflate stream, inflating to
          one tagged encoding
========  =============================================================

**One deflate stream per connection and direction** — WebSocket's
permessage-deflate with context takeover (RFC 7692).  Every frame a
connection writes is the next piece of one raw-deflate stream
(:class:`DeflateStream`, level 3, no zlib header), ended by a
``Z_SYNC_FLUSH`` whose constant ``00 00 FF FF`` tail the sender strips and
the receiver puts back.  A frame can back-reference everything its
connection sent before it — the record layout, the keys and peer ids of
earlier frames — and no frame pays for setting up zlib state.  The
receiver keeps one inflater per connection (in
:class:`~repro.net.codec.FrameDecoder`) and must see every frame, in order:
a frame that is corrupt, truncated, inflates past :data:`MAX_FRAME_BYTES` or
ends the stream is a :class:`CodecError`, and there is no resync.  The
sender bounds the *packed* size before deflating, so a payload it refuses
never advances its stream.  Without a ``stream``, :func:`pack_payload`
writes a ``0x01`` body, and :func:`unpack_payload` reads a ``0x02`` body as
the first frame of a fresh stream.

The tagged encoding is a deterministic, self-delimiting value stream built
from one tag byte plus big-endian fixed-width fields.  The tags: ``N``/``T``/
``F`` singletons, ``i`` int64, ``I`` a wider int as a decimal string, ``f``
float64, ``s`` string, ``l`` list, ``d`` dict, ``t`` ``Timestamp`` and ``q``
a packed int64 array — a u32 count, then ``count × 8`` bytes moved by one
``tobytes``/``frombytes`` call, decoded back to an ``array('q')`` (arrays of
any other typecode are refused at encode time).  Whatever an application
puts in a key or a value comes back as the same value: there is no tag
object to mistake user data for.

**Records.**  The protocol's own objects travel natively, as ``Timestamp``
does: ``o`` an :class:`~repro.dht.messages.OperationTrace`, ``w`` an
:class:`~repro.api.results.InsertResult`, ``r`` a
:class:`~repro.api.results.RetrieveResult`, ``W``/``R`` the batch results.
A result record packs its fixed fields (flags, counts, the consistency
code) in one ``struct`` call; a timestamp of the result's own key carries
only its counter; key, data and the other optional fields follow in the
tagged encoding.  A trace record is its control and data sizes, a message
count, a flags byte and the kind bytes
(:data:`~repro.dht.messages.KIND_CODES`), then its integer columns, each in
the narrowest form that holds it: big-endian u32s (``-1`` as
``0xFFFFFFFF``, so a real ``0xFFFFFFFF`` takes the next form), int64s, or a
tagged list for ids beyond int64.  What the receiver can rebuild stays
home: ``size_bytes`` is left out under a flag when every message has its
kind's single-entry size (rebuilt from ``kinds`` through
:attr:`~repro.dht.messages.MessageSizes.kind_sizes`), and ``sources`` is a
u32 count, one 0/1 byte per message — set where the source is not the
previous message's dest (``-1`` before the first) — and the flagged sources
only.  ``dests`` and the ``timed_out`` indices close the record.  A batch
carries its one shared trace once and its per-key records without one.  A
received trace is rebuilt as list columns, after the checks of
:func:`_decode_trace`.

**Peer ids travel once per stream** — HPACK's dynamic table (RFC 7541) for
trace columns.  Each stream's sender and receiver keep the same table of the
peer ids its flagged ``sources`` and its ``dests`` columns have carried, in
column order (index 0 is ``-1``; at most :data:`PEER_TABLE_SIZE` ids).  In a
``0x02`` frame, once the table holds an id, a peer-id column whose ids are
all in it travels in a fourth form: big-endian u16 indices.  Any other
column takes one of the three forms above, and both sides append its new ids
once the whole frame has gone through — the sender after the size check, so
a refused payload leaves the table as it was.  A stream's first frame, a
``0x01`` frame and ``size_bytes`` never use the fourth form; the receiver
refuses it in the last two, and any index past the end of its table.

A dict is a u32 count, then ``count`` keys each followed by its value.  A
key listed in :data:`WIRE_KEYS` — the envelope and request field names — is
**one byte**, its index in that table; any other key is ``0xFF`` plus a
length-prefixed UTF-8 string.  A code never moves (codes are wire protocol,
like the trace's kind codes), and there is one key layout: no negotiation,
no fallback.  Keys are emitted in sorted order *of the key
strings*, so equal payloads always produce identical bytes; tuples are
encoded as lists.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from contextvars import ContextVar
from functools import lru_cache
from itertools import chain, compress, filterfalse, islice
from operator import ne
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import KIND_CODES, MessageSizes, OperationTrace

__all__ = [
    "CodecError",
    "DeflateStream",
    "InflateStream",
    "MARKER_BINARY",
    "MARKER_COMPRESSED",
    "MAX_FRAME_BYTES",
    "PEER_TABLE_SIZE",
    "WIRE_KEYS",
    "pack_payload",
    "unpack_payload",
]


class CodecError(ValueError):
    """A frame or payload could not be encoded or decoded."""


#: Hard upper bound on one frame's body, on the wire and inflated,
#: protecting both sides against a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First body byte of a self-contained frame: the tagged encoding follows.
MARKER_BINARY = 0x01
#: First body byte of a connection's frame: the next piece of its stream.
MARKER_COMPRESSED = 0x02

_PLAIN_MARKER = bytes((MARKER_BINARY,))
_STREAM_MARKER = bytes((MARKER_COMPRESSED,))
#: What every ``Z_SYNC_FLUSH`` ends with (an empty stored block's lengths):
#: stripped by the sender, put back by the receiver.
_SYNC_TAIL = b"\x00\x00\xff\xff"
#: A final fixed-Huffman block holding nothing: an inflater that stopped at a
#: flush point takes it and reaches the end of the stream.
_EMPTY_FINAL_BLOCK = b"\x03\x00"
#: Level 3: near level 1's time with most of level 6's ratio on the
#: protocol's frames (DESIGN.md "Wire efficiency").
_LEVEL = 3

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
#: One tag byte and its fixed-width field, packed in one call: a count or
#: length (``s``/``I``/``l``/``d``/``q``), an int64 (``i``), a float64 (``f``).
_TAG_U32 = struct.Struct(">cI")
_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")

#: The fixed fields of the records: flags, replicas written and attempted,
#: the own-key timestamp counter (insert); flags, consistency code, replicas
#: inspected, the two own-key counters (retrieve); control and data sizes,
#: message count, column flags (trace).
_INSERT_HEAD = struct.Struct(">Bqqq")
_RETRIEVE_HEAD = struct.Struct(">BBqqq")
_TRACE_HEAD = struct.Struct(">qqIB")
_BATCH_HEAD = struct.Struct(">BI")

#: Result flag bits; a record with any other bit set is refused.
_FOUND, _CURRENT, _AMBIGUOUS, _OWN_STAMP, _OWN_LATEST = 1, 2, 4, 8, 16
_INSERT_FLAGS = _OWN_STAMP
_RETRIEVE_FLAGS = _FOUND | _CURRENT | _AMBIGUOUS | _OWN_STAMP | _OWN_LATEST
#: Trace column forms, two flag bits each (size_bytes at bit 0, sources at
#: bit 2, dests at bit 4): big-endian u32s with ``-1`` as ``0xFFFFFFFF``,
#: int64s, a tagged list, or (peer ids in a stream only) big-endian u16
#: indices into the stream's peer-id table.
_NARROW, _WIDE, _LISTED, _INDEXED = 0, 1, 2, 3
#: Trace flag bit: every size is its kind's single-entry size, and the
#: size_bytes column is left out (rebuilt from ``kinds``).
_DEFAULT_SIZES = 64
_TRACE_FLAGS = _DEFAULT_SIZES | 0b111111
#: The one u32 that is not a narrow value: ``-1`` on the wire.
_MINUS_ONE_U32 = 0xFFFFFFFF

#: Consistency levels as one-byte codes, append-only like the kind codes;
#: ``0xFF`` escapes to a tagged value for any other level.
_CONSISTENCY_LEVELS = (Consistency.CURRENT, Consistency.ANY,
                       Consistency.BEST_EFFORT)
_CONSISTENCY_CODES = {level: code for code, level in enumerate(_CONSISTENCY_LEVELS)}
_OTHER_LEVEL = 0xFF

#: The known kind bytes, deleted from a received ``kinds`` column to find
#: the unknown ones.
_KIND_BYTES = "".join(KIND_CODES.values()).encode("ascii")
#: The bytes a source-flag column may hold.
_FLAG_BYTES = b"\x00\x01"

#: The ``q`` tag and the trace columns are big-endian on the wire.
_SWAP_ARRAYS = sys.byteorder == "little"

#: Dict keys that travel as one byte: a key's index in this table *is* its
#: wire code.  **Pinned** (``tests/net/test_codec.py`` spells the table out):
#: a code never moves, since a reorder silently renames every field a peer
#: reads, so new protocol keys go at the end.  The envelope and request field
#: names — whatever ``RemoteService`` sends and ``NodeServer.handle_request``
#: answers around the records, for the data operations (the ``info``/``sync``
#: reports are sent once and stay spelled out).  At most 255 entries: code
#: ``0xFF`` escapes to a length-prefixed string for any other key.
WIRE_KEYS: Tuple[str, ...] = (
    # envelope
    "id", "ok", "result", "error", "op",
    # request parameters
    "service", "key", "data", "origin", "unreachable", "consistency",
    "max_probes", "items", "keys",
)

_RAW_KEY_CODE = 0xFF
_RAW_KEY = bytes((_RAW_KEY_CODE,))
_KEY_CODES: Dict[str, bytes] = {key: bytes((code,))
                                for code, key in enumerate(WIRE_KEYS)}
_KEY_COUNT = len(WIRE_KEYS)

# Value tags as the integers that indexing a ``bytes`` body yields.  0x00 is
# never one: a dict in the pre-1.11 layout (u32 key length first, so 0x00
# 0x00 for any key under 64 KiB) then reads as key code 0 followed by value
# tag 0x00 and is refused at its first key.
(_TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_BIGINT, _TAG_FLOAT, _TAG_STR,
 _TAG_LIST, _TAG_DICT, _TAG_ARRAY, _TAG_TIMESTAMP, _TAG_TRACE, _TAG_INSERT,
 _TAG_RETRIEVE, _TAG_BATCH_INSERT, _TAG_BATCH_RETRIEVE) = b"NTFiIfsldqtowrWR"

_U32_AT = _U32.unpack_from
_I64_AT = _I64.unpack_from
_F64_AT = struct.Struct(">d").unpack_from

#: Most peer ids one stream's table holds: u16 index 0 is ``-1``, and
#: 1..65 535 are the ids in the order the stream first carried them.
PEER_TABLE_SIZE = 65_535


class _PeerTable:
    """The peer ids one stream's trace columns have carried, in column order.

    Sender and receiver each keep one per stream and grow it the same way:
    the ids of every ``sources``/``dests`` column that did *not* travel as
    indices are noted while a frame is packed or unpacked, and appended
    (first occurrence first, at most :data:`PEER_TABLE_SIZE`) only once the
    whole frame went through.  Within a frame, both sides see the table as
    it was before it.
    """

    __slots__ = ("codes", "ids", "pending")

    def __init__(self) -> None:
        #: Each id's index as it travels (big-endian u16), and each index's id.
        self.codes: Dict[int, bytes] = {-1: _U16.pack(0)}
        self.ids: List[int] = [-1]
        self.pending: Dict[int, None] = {}

    def note(self, values: Sequence[int]) -> None:
        """Mark the ids of ``values`` that the table lacks for appending."""
        self.pending.update(dict.fromkeys(filterfalse(self.codes.__contains__,
                                                      values)))

    def commit(self) -> None:
        """Append the noted ids, as far as the table has room."""
        pending, ids = self.pending, self.ids
        if pending:
            new = list(islice(pending, PEER_TABLE_SIZE + 1 - len(ids)))
            self.codes.update(zip(new, map(_U16.pack, range(len(ids),
                                                            len(ids) + len(new)))))
            ids += new
            pending.clear()


#: The peer-id table of the frame being packed or unpacked; ``None`` outside
#: a stream (a ``0x01`` frame), where no column travels as indices.  Set for
#: the length of one :func:`pack_payload`/:func:`unpack_payload` call, so a
#: thread or task sees only its own frame's, without the recursive coders
#: passing it along.
_PEERS: ContextVar[Optional[_PeerTable]] = ContextVar("peers", default=None)


class DeflateStream:
    """The sending half of one connection's binary stream, in one direction.

    Each :meth:`deflate` call is the next frame: its bytes may refer back to
    everything deflated before, so the frames must reach one receiver, all
    of them and in order — a connection owns its stream, and a link that is
    torn down takes its stream with it.  About 256 KB of zlib state, plus
    the stream's peer-id table (:func:`pack_payload` keeps it).
    """

    def __init__(self) -> None:
        self._deflate = zlib.compressobj(_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
        self.peers = _PeerTable()

    def deflate(self, packed: Union[bytes, bytearray]) -> bytes:
        """The ``0x02`` body carrying ``packed``: the stream's next piece,
        sync-flushed, without the flush's constant tail."""
        deflate = self._deflate
        body = (_STREAM_MARKER + deflate.compress(packed)
                + deflate.flush(zlib.Z_SYNC_FLUSH))
        return body[:-len(_SYNC_TAIL)]


# ----------------------------------------------------------------- encoding
def _encode_str(tag: bytes, text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    out += _TAG_U32.pack(tag, len(raw))
    out += raw


def _encode_int(value: int, out: bytearray) -> None:
    try:
        out += _TAG_I64.pack(b"i", value)
    except struct.error:
        # Wider than int64: the decimal-string tag, so arbitrary Python ints
        # survive the round trip.
        _encode_str(b"I", str(value), out)


def _encode_list(values: Sequence[Any], out: bytearray) -> None:
    out += _TAG_U32.pack(b"l", len(values))
    for item in values:
        _pack(item, out)


def _encode_dict(value: Dict[Any, Any], out: bytearray) -> None:
    out += _TAG_U32.pack(b"d", len(value))
    try:
        keys = sorted(value)
    except TypeError:
        keys = list(value)  # mixed key types: the loop below names the culprit
    for key in keys:
        code = _KEY_CODES.get(key)
        if code is not None:
            out += code
        elif isinstance(key, str):
            _encode_str(_RAW_KEY, key, out)
        else:
            raise CodecError(f"binary payload dict keys must be strings, "
                             f"got {type(key).__name__}")
        _pack(value[key], out)


def _encode_array(column: "array[int]", out: bytearray) -> None:
    """Append ``column``'s bytes, big-endian (``column`` is a scratch copy)."""
    if _SWAP_ARRAYS:
        column.byteswap()
    out += column


def _encode_timestamp(stamp: Timestamp, out: bytearray) -> None:
    _pack(stamp.key, out)
    out += _I64.pack(stamp.value)


def _own_counter(stamp: Any, key: Any) -> Optional[int]:
    """``stamp``'s counter if it is a timestamp of ``key`` itself.

    Its key then need not travel: it *is* the result's key — the same
    object, or an equal string or int (equal type and value, so ``1``,
    ``True`` and ``1.0`` never stand in for one another).
    """
    if type(stamp) is Timestamp:
        own = stamp.key
        if own is key or (type(own) is type(key) and type(key) in (str, int)
                          and own == key):
            return stamp.value
    return None


def _replaced(values: List[int], old: int, new: int) -> List[int]:
    """``values`` with each ``old`` replaced by ``new``, in place: one scan,
    and a loop over the matches only."""
    index = -1
    try:
        while True:
            index = values.index(old, index + 1)
            values[index] = new
    except ValueError:
        return values


def _encode_column(values: Sequence[int], out: bytearray) -> int:
    """Append ``values`` in the narrowest form that holds them; return the form."""
    if _MINUS_ONE_U32 not in values:
        try:
            _encode_array(array("I", _replaced(list(values), -1, _MINUS_ONE_U32)
                                 if -1 in values else values), out)
            return _NARROW
        except OverflowError:
            pass  # a value beyond 32 bits, or below -1
    try:
        _encode_array(array("q", values), out)
        return _WIDE
    except OverflowError:
        # An id beyond int64 (``bits > 63``): the bigint tag carries it.
        _encode_list(values, out)
        return _LISTED


def _encode_ids(values: Sequence[int], out: bytearray,
                peers: Optional[_PeerTable]) -> int:
    """Append a peer-id column: as indices when the stream's table holds
    every id (and any id at all), else in :func:`_encode_column`'s form, its
    new ids noted; return the form."""
    if peers is not None:
        codes = peers.codes
        if len(codes) > 1:
            try:
                out += b"".join(map(codes.__getitem__, values))
                return _INDEXED
            except KeyError:
                pass  # an id the table lacks
        peers.note(values)
    return _encode_column(values, out)


def _encode_trace(trace: OperationTrace, out: bytearray) -> None:
    """Append a trace record (untagged): sizes, count, flags, kinds, columns,
    timeouts."""
    if not isinstance(trace, OperationTrace):
        raise CodecError(f"a result's trace must be an OperationTrace, "
                         f"got {type(trace).__name__}")
    kinds, sizes, dests = trace.kinds, trace.sizes, trace.dests
    head = len(out)
    out += _TRACE_HEAD.pack(sizes.control_bytes, sizes.data_bytes, len(kinds), 0)
    out += kinds
    # Sizes: left out when each is its kind's single-entry size.  The byte
    # total rules most other traces out (a batch's multi-entry messages)
    # before any element-wise compare.
    if (sizes.single_entry_total(kinds) == trace.total_bytes
            and list(map(sizes.kind_sizes.__getitem__, kinds)) == list(trace.size_bytes)):
        flags = _DEFAULT_SIZES
    else:
        flags = _encode_column(trace.size_bytes, out)
    # Sources: a flag byte per message, set where the source is not the
    # previous message's dest (-1 before the first), then those sources.
    chained = bytes(map(ne, trace.sources, chain((-1,), dests)))
    unchained = list(compress(trace.sources, chained))
    out += _U32.pack(len(unchained))
    out += chained
    peers = _PEERS.get()
    flags |= _encode_ids(unchained, out, peers) << 2
    flags |= _encode_ids(dests, out, peers) << 4
    out[head + _TRACE_HEAD.size - 1] = flags
    out += _U32.pack(len(trace.timed_out))
    _encode_array(array("q", trace.timed_out), out)


def _encode_insert(result: InsertResult, out: bytearray, *,
                   with_trace: bool = True) -> None:
    """Append an insert record (untagged; a batch's records carry no trace)."""
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    out += _INSERT_HEAD.pack(0 if stamp is None else _OWN_STAMP,
                             result.replicas_written, result.replicas_attempted,
                             stamp or 0)
    _pack(key, out)
    if stamp is None:
        _pack(result.timestamp, out)
    _pack(result.version, out)
    _pack(result.service, out)
    if with_trace:
        _encode_trace(result.trace, out)


def _encode_retrieve(result: RetrieveResult, out: bytearray, *,
                     with_trace: bool = True) -> None:
    """Append a retrieve record (untagged; a batch's records carry no trace)."""
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    latest = _own_counter(result.latest_timestamp, key)
    code = _CONSISTENCY_CODES.get(result.consistency, _OTHER_LEVEL)
    flags = ((_FOUND if result.found else 0)
             | (_CURRENT if result.is_current else 0)
             | (_AMBIGUOUS if result.ambiguous else 0)
             | (0 if stamp is None else _OWN_STAMP)
             | (0 if latest is None else _OWN_LATEST))
    out += _RETRIEVE_HEAD.pack(flags, code, result.replicas_inspected,
                               stamp or 0, latest or 0)
    _pack(key, out)
    _pack(result.data, out)
    if stamp is None:
        _pack(result.timestamp, out)
    if latest is None:
        _pack(result.latest_timestamp, out)
    _pack(result.version, out)
    _pack(result.service, out)
    if code == _OTHER_LEVEL:
        _pack(result.consistency, out)
    if with_trace:
        _encode_trace(result.trace, out)


def _encode_batch_insert(batch: BatchInsertResult, out: bytearray) -> None:
    out += _U32.pack(len(batch.results))
    _encode_trace(batch.trace, out)
    for result in batch.results:
        _encode_insert(result, out, with_trace=False)


def _encode_batch_retrieve(batch: BatchRetrieveResult, out: bytearray) -> None:
    code = _CONSISTENCY_CODES.get(batch.consistency, _OTHER_LEVEL)
    out += _BATCH_HEAD.pack(code, len(batch.results))
    if code == _OTHER_LEVEL:
        _pack(batch.consistency, out)
    _encode_trace(batch.trace, out)
    for result in batch.results:
        _encode_retrieve(result, out, with_trace=False)


#: The objects with a tag of their own, by exact type: the tag and the
#: encoder of what follows it.
_RECORDS: Dict[type, Tuple[int, Callable[[Any, bytearray], None]]] = {
    Timestamp: (_TAG_TIMESTAMP, _encode_timestamp),
    OperationTrace: (_TAG_TRACE, _encode_trace),
    InsertResult: (_TAG_INSERT, _encode_insert),
    RetrieveResult: (_TAG_RETRIEVE, _encode_retrieve),
    BatchInsertResult: (_TAG_BATCH_INSERT, _encode_batch_insert),
    BatchRetrieveResult: (_TAG_BATCH_RETRIEVE, _encode_batch_retrieve),
}


def _pack(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``.

    The exact types a payload is made of are dispatched on ``type(value)``;
    subclasses (an ``IntEnum``, a ``str`` enum, a named tuple) take the
    ``isinstance`` chain below them.
    """
    kind = type(value)
    if kind is str:
        _encode_str(b"s", value, out)
    elif kind is int:
        _encode_int(value, out)
    elif kind is dict:
        _encode_dict(value, out)
    elif kind is list or kind is tuple:
        _encode_list(value, out)
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif kind is float:
        out += _TAG_F64.pack(b"f", value)
    elif kind in _RECORDS:
        tag, encode = _RECORDS[kind]
        out.append(tag)
        encode(value, out)
    elif isinstance(value, Timestamp):
        out.append(_TAG_TIMESTAMP)
        _encode_timestamp(value, out)
    elif isinstance(value, array):
        if value.typecode != "q":
            raise CodecError(f"only array('q') is wire-serialisable, "
                             f"got array({value.typecode!r})")
        out += _TAG_U32.pack(b"q", len(value))
        _encode_array(array("q", value), out)
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        out += _TAG_F64.pack(b"f", value)
    elif isinstance(value, str):
        _encode_str(b"s", value, out)
    elif isinstance(value, (list, tuple)):
        _encode_list(value, out)
    elif isinstance(value, dict):
        _encode_dict(value, out)
    else:
        raise CodecError(f"value of type {type(value).__name__} is not "
                         f"wire-serialisable")


def pack_payload(payload: Dict[str, Any], *,
                 stream: Optional[DeflateStream] = None) -> bytes:
    """Encode ``payload`` as one frame body (marker included).

    The body is the next piece of ``stream`` — or, without one, the
    self-contained ``0x01`` body.  A payload whose packed encoding could not
    fit :data:`MAX_FRAME_BYTES` once deflated (the receiver's bound on both
    the wire body and its inflated size) is refused before it is deflated,
    so the stream stays usable; so is one that fails mid-pack.  Either way
    the stream's peer-id table is left as it was: the frame's new ids join
    it only once the frame is deflated.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"frame payload must be a dict, "
                         f"got {type(payload).__name__}")
    packed = bytearray(_PLAIN_MARKER if stream is None else b"")
    peers = None if stream is None else stream.peers
    if peers is not None:
        peers.pending.clear()  # what a refused payload noted
    token = _PEERS.set(peers)
    try:
        _pack(payload, packed)
    except (struct.error, OverflowError, TypeError) as error:
        raise CodecError(f"payload is not wire-serialisable: {error}") from error
    except RecursionError as error:
        raise CodecError("payload nests too deeply") from error
    finally:
        _PEERS.reset(token)
    # Deflate's worst case (stored blocks) adds 5 bytes per 16 KiB and the
    # flush a few more: bound the packed size so both sides of it fit.
    size = len(packed)
    if size + (size >> 10) + 64 > MAX_FRAME_BYTES:
        raise CodecError(f"binary payload of {size} packed bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte frame limit")
    if stream is None:
        return bytes(packed)
    body = stream.deflate(packed)
    stream.peers.commit()
    return body


# ----------------------------------------------------------------- decoding
def _span(data: bytes, start: int, size: int) -> Tuple[int, int]:
    """``(start, start + size)``, once ``size`` bytes are known to be there.

    Checked before anything is sliced (a slice would silently come back
    short) or allocated (a hostile count).
    """
    end = start + size
    if end > len(data):
        raise CodecError(f"truncated binary body: wanted {size} bytes "
                         f"at offset {start}, have {len(data)}")
    return start, end


def _decode_int64s(data: bytes, start: int, count: int) -> Tuple["array[int]", int]:
    """The ``count`` big-endian int64s at ``start`` and the offset behind them."""
    start, end = _span(data, start, count * 8)
    column = array("q")
    column.frombytes(data[start:end])
    if _SWAP_ARRAYS:
        column.byteswap()
    return column, end


def _decode_str(data: bytes, pos: int) -> Tuple[str, int]:
    """The length-prefixed UTF-8 string at ``pos`` and the offset behind it."""
    start, end = _span(data, pos + 4, _U32_AT(data, pos)[0])
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise CodecError(f"malformed UTF-8 in binary body: {error}") from error


def _timestamp(key: Any, counter: int) -> Timestamp:
    if counter < 0:
        raise CodecError(f"negative timestamp counter {counter}")
    return Timestamp(key=key, value=counter)


def _stamp(data: bytes, pos: int, key: Any, own: int,
           counter: int) -> Tuple[Any, int]:
    """A record's timestamp field: of its own key (``own``), or tagged."""
    if own:
        return _timestamp(key, counter), pos
    return _unpack(data, pos)


def _level(data: bytes, pos: int, code: int) -> Tuple[Any, int]:
    """The consistency level behind ``code`` (escaped: the tagged value)."""
    if code < len(_CONSISTENCY_LEVELS):
        return _CONSISTENCY_LEVELS[code], pos
    if code == _OTHER_LEVEL:
        return _unpack(data, pos)
    raise CodecError(f"unknown consistency code {code:#04x}")


def _check_flags(flags: int, known: int, record: str) -> None:
    if flags & ~known:
        raise CodecError(f"unknown {record} record flags {flags:#04x}")


def _decode_column(data: bytes, pos: int, form: int, count: int,
                   floor: int) -> Tuple[List[int], int]:
    """The column of ``count`` values ``>= floor`` in ``form`` at ``pos``, as
    a list, and the offset behind it."""
    if form == _NARROW:
        start, end = _span(data, pos, count * 4)
        column = array("I")
        column.frombytes(data[start:end])
        if _SWAP_ARRAYS:
            column.byteswap()
        values = column.tolist()
        if floor < 0:
            return _replaced(values, _MINUS_ONE_U32, -1), end
        if _MINUS_ONE_U32 in values:
            raise CodecError("malformed trace columns: a size below 0")
        return values, end
    if form == _WIDE:
        column, pos = _decode_int64s(data, pos, count)
        values = column.tolist()
    elif form == _LISTED:
        values, pos = _unpack(data, pos)
        if type(values) is not list or not set(map(type, values)) <= {int}:
            raise CodecError("malformed trace columns: a list column "
                             "holds something other than integers")
        if len(values) != count:
            raise CodecError(f"trace columns differ in length: a list of "
                             f"{len(values)} where {count} belong")
    else:
        raise CodecError("malformed trace columns: peer-id indices in the "
                         "size_bytes column")
    if values and min(values) < floor:
        raise CodecError(f"malformed trace columns: a value below {floor}")
    return values, pos


def _decode_ids(data: bytes, pos: int, form: int, count: int,
                peers: Optional[_PeerTable]) -> Tuple[List[int], int]:
    """The peer-id column of ``count`` ids in ``form`` at ``pos`` — indices
    looked up in the stream's table, any other form noted in it — and the
    offset behind it."""
    if form != _INDEXED:
        values, pos = _decode_column(data, pos, form, count, -1)
        if peers is not None:
            peers.note(values)
        return values, pos
    if peers is None:
        raise CodecError("malformed trace columns: peer-id indices outside "
                         "a stream")
    start, end = _span(data, pos, count * 2)
    column = array("H")
    column.frombytes(data[start:end])
    if _SWAP_ARRAYS:
        column.byteswap()
    ids = peers.ids
    try:
        return [ids[index] for index in column], end
    except IndexError:
        raise CodecError(f"malformed trace columns: a peer-id index past a "
                         f"table of {len(ids)}") from None


#: A received trace's sizes, shared by the traces that name the same two
#: (so each pair's memoised rows are computed once).
_shared_sizes = lru_cache(maxsize=16)(MessageSizes)


def _decode_trace(data: bytes, pos: int) -> Tuple[OperationTrace, int]:
    """The (untagged) trace record at ``pos`` and the offset behind it.

    Its columns are rebuilt as lists, as a recorded trace's are, and adopted
    once they are known kind codes, sizes ``>= 0`` and endpoints ``>= -1``
    with in-range ``timed_out`` indices (repeats count once); anything else
    is a :class:`CodecError`.
    """
    control_bytes, data_bytes, count, flags = _TRACE_HEAD.unpack_from(data, pos)
    _check_flags(flags, _TRACE_FLAGS, "trace")
    start, pos = _span(data, pos + _TRACE_HEAD.size, count)
    kinds = bytearray(data[start:pos])
    unknown = kinds.translate(None, _KIND_BYTES)
    if unknown:
        raise CodecError(f"unknown message kind code {chr(unknown[0])!r}")
    if control_bytes < 0 or data_bytes < 0:
        raise CodecError("malformed trace record: a message size below 0")
    sizes = _shared_sizes(control_bytes, data_bytes)
    if not flags & _DEFAULT_SIZES:
        size_bytes, pos = _decode_column(data, pos, flags & 3, count, 0)
    elif flags & 3:
        raise CodecError(f"unknown trace record flags {flags:#04x}")
    else:
        size_bytes = list(map(sizes.kind_sizes.__getitem__, kinds))
    unchained_count = _U32_AT(data, pos)[0]
    start, pos = _span(data, pos + 4, count)
    chained = data[start:pos]
    if chained.translate(None, _FLAG_BYTES):
        raise CodecError("malformed trace columns: a source flag other than 0 or 1")
    flagged = chained.count(1)
    if flagged != unchained_count:
        raise CodecError(f"malformed trace columns: {unchained_count} unchained "
                         f"sources for {flagged} set source flags")
    peers = _PEERS.get()
    unchained, pos = _decode_ids(data, pos, flags >> 2 & 3, flagged, peers)
    dests, pos = _decode_ids(data, pos, flags >> 4 & 3, count, peers)
    timeouts = _U32_AT(data, pos)[0]
    marked: List[int] = []
    if timeouts:
        timed_out, pos = _decode_int64s(data, pos + 4, timeouts)
        marked = sorted(set(timed_out))
        if not 0 <= marked[0] <= marked[-1] < count:
            raise CodecError(f"timed_out index outside a trace of {count} "
                             f"messages: {marked[0]}..{marked[-1]}")
    else:
        pos += 4
    sources = [-1, *dests]
    sources.pop()
    for index, source in zip(compress(range(count), chained), unchained):
        sources[index] = source
    return OperationTrace(sizes, (kinds, size_bytes, sources, dests, marked)), pos


def _decode_insert(data: bytes, pos: int,
                   trace: Optional[OperationTrace]) -> Tuple[InsertResult, int]:
    """The insert record at ``pos``; ``trace`` is its batch's shared trace."""
    flags, written, attempted, counter = _INSERT_HEAD.unpack_from(data, pos)
    _check_flags(flags, _INSERT_FLAGS, "insert")
    key, pos = _unpack(data, pos + _INSERT_HEAD.size)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    if trace is None:
        trace, pos = _decode_trace(data, pos)
    return InsertResult(key=key, replicas_written=written,
                        replicas_attempted=attempted, trace=trace,
                        timestamp=stamp, version=version, service=service), pos


def _decode_retrieve(data: bytes, pos: int, trace: Optional[OperationTrace]
                     ) -> Tuple[RetrieveResult, int]:
    """The retrieve record at ``pos``; ``trace`` is its batch's shared trace."""
    flags, code, inspected, counter, latest_counter = \
        _RETRIEVE_HEAD.unpack_from(data, pos)
    _check_flags(flags, _RETRIEVE_FLAGS, "retrieve")
    key, pos = _unpack(data, pos + _RETRIEVE_HEAD.size)
    value, pos = _unpack(data, pos)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    latest, pos = _stamp(data, pos, key, flags & _OWN_LATEST, latest_counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    consistency, pos = _level(data, pos, code)
    if trace is None:
        trace, pos = _decode_trace(data, pos)
    return RetrieveResult(key=key, data=value, found=bool(flags & _FOUND),
                          is_current=bool(flags & _CURRENT),
                          replicas_inspected=inspected, trace=trace,
                          timestamp=stamp, latest_timestamp=latest,
                          version=version, ambiguous=bool(flags & _AMBIGUOUS),
                          consistency=consistency, service=service), pos


def _decode_batch_insert(data: bytes, pos: int) -> Tuple[BatchInsertResult, int]:
    count = _U32_AT(data, pos)[0]
    trace, pos = _decode_trace(data, pos + 4)
    results = []
    for _ in range(count):
        result, pos = _decode_insert(data, pos, trace)
        results.append(result)
    return BatchInsertResult(results=tuple(results), trace=trace), pos


def _decode_batch_retrieve(data: bytes, pos: int
                           ) -> Tuple[BatchRetrieveResult, int]:
    code, count = _BATCH_HEAD.unpack_from(data, pos)
    consistency, pos = _level(data, pos + _BATCH_HEAD.size, code)
    trace, pos = _decode_trace(data, pos)
    results = []
    for _ in range(count):
        result, pos = _decode_retrieve(data, pos, trace)
        results.append(result)
    return BatchRetrieveResult(results=tuple(results), trace=trace,
                               consistency=consistency), pos


def _unpack(data: bytes, pos: int) -> Tuple[Any, int]:
    """The tagged value at ``pos`` and the offset behind it.

    Every read is bounds-checked: a tag, a key code or a fixed-width field
    past the end raises ``IndexError``/``struct.error`` (``unpack_from``
    checks the buffer itself), which :func:`unpack_payload` reports as a
    truncated body; a counted field (string, array, column) goes through
    :func:`_span`.
    """
    tag = data[pos]
    pos += 1
    if tag == _TAG_STR:
        return _decode_str(data, pos)
    if tag == _TAG_INT:
        return _I64_AT(data, pos)[0], pos + 8
    if tag == _TAG_DICT:
        count = _U32_AT(data, pos)[0]
        pos += 4
        result: Dict[str, Any] = {}
        for _ in range(count):
            code = data[pos]
            if code < _KEY_COUNT:
                key = WIRE_KEYS[code]
                pos += 1
            elif code == _RAW_KEY_CODE:
                key, pos = _decode_str(data, pos + 1)
            else:
                raise CodecError(f"unknown dict key code {code:#04x} at "
                                 f"offset {pos}")
            result[key], pos = _unpack(data, pos)
        return result, pos
    if tag == _TAG_LIST:
        count = _U32_AT(data, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _unpack(data, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_RETRIEVE:
        return _decode_retrieve(data, pos, None)
    if tag == _TAG_INSERT:
        return _decode_insert(data, pos, None)
    if tag == _TAG_BATCH_RETRIEVE:
        return _decode_batch_retrieve(data, pos)
    if tag == _TAG_BATCH_INSERT:
        return _decode_batch_insert(data, pos)
    if tag == _TAG_TRACE:
        return _decode_trace(data, pos)
    if tag == _TAG_ARRAY:
        return _decode_int64s(data, pos + 4, _U32_AT(data, pos)[0])
    if tag == _TAG_TIMESTAMP:
        key, pos = _unpack(data, pos)
        return _timestamp(key, _I64_AT(data, pos)[0]), pos + 8
    if tag == _TAG_FLOAT:
        return _F64_AT(data, pos)[0], pos + 8
    if tag == _TAG_BIGINT:
        text, pos = _decode_str(data, pos)
        try:
            return int(text), pos
        except ValueError as error:
            raise CodecError(f"malformed big integer: {error}") from error
    raise CodecError(f"unknown binary value tag {bytes((tag,))!r} at "
                     f"offset {pos - 1}")


def _inflate(body: bytes, stream: "zlib._Decompress") -> bytes:
    """The packed bytes a ``0x02`` body carries: its piece of ``stream``."""
    try:
        packed = stream.decompress(body[1:] + _SYNC_TAIL, MAX_FRAME_BYTES + 1)
        if stream.eof:
            raise CodecError("compressed body ends the stream")
        if len(packed) > MAX_FRAME_BYTES or stream.unconsumed_tail:
            raise CodecError("compressed body exceeds the frame size limit")
        # A frame stops at a flush point, where the stream could end at once;
        # one cut short stops inside a block, which an inflater never reports.
        probe = stream.copy()
        if probe.decompress(_EMPTY_FINAL_BLOCK) or not probe.eof:
            raise CodecError("compressed body is truncated: it stops short "
                             "of its flush point")
    except zlib.error as error:
        raise CodecError(f"corrupt or truncated compressed body: {error}") from error
    return packed


class InflateStream:
    """The receiving half of one connection's binary stream, in one direction:
    its inflater and its peer-id table (:func:`unpack_payload` keeps both).

    It must be fed every ``0x02`` body of its connection, in order; once one
    fails, the stream is lost (:class:`~repro.net.codec.FrameDecoder` then
    refuses the rest).
    """

    def __init__(self) -> None:
        self.inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        self.peers = _PeerTable()


def unpack_payload(body: bytes, *,
                   stream: Optional[InflateStream] = None) -> Dict[str, Any]:
    """Decode one frame body (``0x01`` or ``0x02`` marker) to its payload.

    A ``0x02`` body is read by ``stream``, its connection's receiving half —
    or, without one, as the first frame of a fresh stream.
    """
    if not body:
        raise CodecError("empty frame body")
    marker = body[0]
    start = 1
    peers: Optional[_PeerTable] = None
    if marker == MARKER_COMPRESSED:
        if stream is None:
            stream = InflateStream()
        body = _inflate(body, stream.inflater)
        peers = stream.peers
        start = 0
    elif marker != MARKER_BINARY:
        raise CodecError(f"unknown body marker {marker:#04x}")
    token = _PEERS.set(peers)
    try:
        payload, end = _unpack(body, start)
    except (IndexError, struct.error) as error:
        raise CodecError(f"truncated binary body: {error}") from error
    except RecursionError as error:
        raise CodecError("binary body nests too deeply") from error
    finally:
        _PEERS.reset(token)
    if end != len(body):
        raise CodecError("trailing bytes after the binary payload")
    if not isinstance(payload, dict):
        raise CodecError(f"frame body must decode to an object, "
                         f"got {type(payload).__name__}")
    if peers is not None:
        peers.commit()
    return payload
