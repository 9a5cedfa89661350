"""Compact binary body encoding for the service-mode wire codec.

The transport's frames are ``4-byte big-endian length || body`` (see
:mod:`repro.net.codec`).  This module defines the *binary* bodies that sit
beside the JSON body, discriminated by the body's first byte:

========  =============================================================
marker    body
========  =============================================================
``0x7b``  UTF-8 JSON object (``{`` — the legacy format)
``0x01``  the tagged encoding of one payload object (read, never written)
``0x02``  the next piece of the connection's deflate stream, inflating to
          one tagged encoding
========  =============================================================

**One deflate stream per connection and direction** — WebSocket's
permessage-deflate with context takeover (RFC 7692).  Every binary frame a
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
writes and :func:`unpack_payload` reads the first frame of a fresh stream —
a deterministic function of the payload.

The tagged encoding is a deterministic, self-delimiting value stream built
from one tag byte plus big-endian fixed-width fields.  The tags: ``N``/``T``/
``F`` singletons, ``i`` int64, ``I`` a wider int as a decimal string, ``f``
float64, ``s`` string, ``l`` list, ``d`` dict, ``t`` ``Timestamp`` and ``q``
a packed int64 array — a u32 count, then ``count × 8`` bytes moved by one
``tobytes``/``frombytes`` call, decoded back to an ``array('q')`` (the JSON
encoder writes the same column as a plain list; arrays of any other typecode
are refused at encode time).

**Records.**  The protocol's own objects travel natively, as ``Timestamp``
does: ``o`` an :class:`~repro.dht.messages.OperationTrace`, ``w`` an
:class:`~repro.api.results.InsertResult`, ``r`` a
:class:`~repro.api.results.RetrieveResult`, ``W``/``R`` the batch results.
A result record packs its fixed fields (flags, counts, the consistency
code) in one ``struct`` call; a timestamp of the result's own key carries
only its counter; key, data and the other optional fields follow in the
tagged encoding.  A trace record is its sizes, a message count, the kind
bytes (:data:`~repro.dht.messages.KIND_CODES`), three packed int64 columns
— a column holding an id outside int64 falls back to a tagged list — and
the ``timed_out`` indices.  A batch carries its one shared trace once and
its per-key records without one.  :func:`trace_from_columns` holds every
check a received trace goes through, whichever format it came in.

A dict is a u32 count, then ``count`` keys each followed by its value.  A
key listed in :data:`WIRE_KEYS` — the protocol's own field names — is **one
byte**, its index in that table; any other key is ``0xFF`` plus a
length-prefixed UTF-8 string.  The table is append-only (codes are wire
protocol, like the trace's kind codes), and there is one key layout: no
negotiation, no fallback.  Keys are emitted in sorted order *of the key
strings*, mirroring the JSON encoder's ``sort_keys=True``, so equal payloads
always produce identical bytes; tuples are encoded as lists, matching the
JSON round-trip.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
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
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "MARKER_BINARY",
    "MARKER_COMPRESSED",
    "MAX_FRAME_BYTES",
    "WIRE_FORMATS",
    "WIRE_KEYS",
    "normalize_wire_format",
    "pack_payload",
    "trace_from_columns",
    "unpack_payload",
]


class CodecError(ValueError):
    """A frame or payload could not be encoded or decoded."""


#: Hard upper bound on one frame's body, on the wire and inflated,
#: protecting both sides against a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Wire-format names as negotiated between client and server.
FORMAT_JSON = "json"
FORMAT_BINARY = "binary"
WIRE_FORMATS: Tuple[str, ...] = (FORMAT_JSON, FORMAT_BINARY)

#: First body byte of a tagged binary body (decoded, no longer written).
MARKER_BINARY = 0x01
#: First body byte of a binary frame: the next piece of the deflate stream.
MARKER_COMPRESSED = 0x02

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
#: message count, list-column flags (trace).
_INSERT_HEAD = struct.Struct(">Bqqq")
_RETRIEVE_HEAD = struct.Struct(">BBqqq")
_TRACE_HEAD = struct.Struct(">qqIB")
_BATCH_HEAD = struct.Struct(">BI")

#: Result flag bits; a record with any other bit set is refused.
_FOUND, _CURRENT, _AMBIGUOUS, _OWN_STAMP, _OWN_LATEST = 1, 2, 4, 8, 16
_INSERT_FLAGS = _OWN_STAMP
_RETRIEVE_FLAGS = _FOUND | _CURRENT | _AMBIGUOUS | _OWN_STAMP | _OWN_LATEST
#: Trace column flag bits: which of size_bytes/sources/dests is a list.
_LIST_COLUMNS = (1, 2, 4)

#: Consistency levels as one-byte codes, append-only like the kind codes;
#: ``0xFF`` escapes to a tagged value for any other level.
_CONSISTENCY_LEVELS = (Consistency.CURRENT, Consistency.ANY,
                       Consistency.BEST_EFFORT)
_CONSISTENCY_CODES = {level: code for code, level in enumerate(_CONSISTENCY_LEVELS)}
_OTHER_LEVEL = 0xFF

#: The known kind bytes, deleted from a received ``kinds`` column to find
#: the unknown ones.
_KIND_BYTES = "".join(KIND_CODES.values()).encode("ascii")

#: The ``q`` tag and the trace columns are big-endian on the wire.
_SWAP_ARRAYS = sys.byteorder == "little"

#: Dict keys that travel as one byte: a key's index in this table *is* its
#: wire code.  **Append-only and pinned** (``tests/net/test_codec.py`` spells
#: the table out): a reorder or a removal silently renames every field a peer
#: reads, so new protocol keys go at the end and nothing ever leaves.  The
#: envelope, request, result and trace field names — whatever
#: ``RemoteService`` sends and ``NodeServer.handle_request`` answers in the
#: dict form of :mod:`repro.net.codec`'s ``*_to_dict`` encoders, for the data
#: operations (the ``info``/``sync`` reports are sent once and stay spelled
#: out).  At most 255 entries: code ``0xFF`` escapes to a length-prefixed
#: string for any other key.
WIRE_KEYS: Tuple[str, ...] = (
    # envelope
    "id", "ok", "result", "error", "op",
    # request parameters
    "service", "key", "data", "origin", "unreachable", "consistency",
    "max_probes", "items", "keys",
    # results
    "replicas_written", "replicas_attempted", "timestamp", "version", "found",
    "is_current", "replicas_inspected", "latest_timestamp", "ambiguous",
    "results", "trace",
    # trace columns
    "sizes", "control_bytes", "data_bytes", "kinds", "size_bytes", "sources",
    "dests", "timed_out",
    # the JSON-compatible Timestamp tag object of ``codec.encode_value``
    "__repro.timestamp__",
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

_Column = Union["array[int]", List[int]]


def normalize_wire_format(name: str) -> str:
    """Validate and canonicalise a wire-format name."""
    if name not in WIRE_FORMATS:
        raise CodecError(f"unknown wire format {name!r}; "
                         f"expected one of {WIRE_FORMATS}")
    return name


class DeflateStream:
    """The sending half of one connection's binary stream, in one direction.

    Each :meth:`deflate` call is the next frame: its bytes may refer back to
    everything deflated before, so the frames must reach one receiver, all
    of them and in order — a connection owns its stream, and a link that is
    torn down takes its stream with it.  About 256 KB of zlib state.
    """

    def __init__(self) -> None:
        self._deflate = zlib.compressobj(_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)

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
        _encode_value(item, out)


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
        _encode_value(value[key], out)


def _encode_int64s(column: "array[int]", out: bytearray) -> None:
    """Append ``column``'s bytes, big-endian (``column`` is a scratch copy)."""
    if _SWAP_ARRAYS:
        column.byteswap()
    out += column


def _encode_timestamp(stamp: Timestamp, out: bytearray) -> None:
    _encode_value(stamp.key, out)
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


def _encode_trace(trace: OperationTrace, out: bytearray) -> None:
    """Append a trace record (untagged): sizes, count, kinds, columns, timeouts."""
    if not isinstance(trace, OperationTrace):
        raise CodecError(f"a result's trace must be an OperationTrace, "
                         f"got {type(trace).__name__}")
    columns = (trace.size_bytes, trace.sources, trace.dests)
    packed: List[Optional["array[int]"]] = []
    lists = 0
    for flag, values in zip(_LIST_COLUMNS, columns):
        try:
            packed.append(array("q", values))
        except OverflowError:
            # An id beyond int64 (``bits > 63``): the bigint tag carries it.
            packed.append(None)
            lists |= flag
    out += _TRACE_HEAD.pack(trace.sizes.control_bytes, trace.sizes.data_bytes,
                            len(trace.kinds), lists)
    out += trace.kinds
    for column, values in zip(packed, columns):
        if column is None:
            _encode_list(values, out)
        else:
            _encode_int64s(column, out)
    out += _U32.pack(len(trace.timed_out))
    _encode_int64s(array("q", trace.timed_out), out)


def _encode_insert(result: InsertResult, out: bytearray, *,
                   with_trace: bool = True) -> None:
    """Append an insert record (untagged; a batch's records carry no trace)."""
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    out += _INSERT_HEAD.pack(0 if stamp is None else _OWN_STAMP,
                             result.replicas_written, result.replicas_attempted,
                             stamp or 0)
    _encode_value(key, out)
    if stamp is None:
        _encode_value(result.timestamp, out)
    _encode_value(result.version, out)
    _encode_value(result.service, out)
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
    _encode_value(key, out)
    _encode_value(result.data, out)
    if stamp is None:
        _encode_value(result.timestamp, out)
    if latest is None:
        _encode_value(result.latest_timestamp, out)
    _encode_value(result.version, out)
    _encode_value(result.service, out)
    if code == _OTHER_LEVEL:
        _encode_value(result.consistency, out)
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
        _encode_value(batch.consistency, out)
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


def _encode_value(value: Any, out: bytearray) -> None:
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
        _encode_int64s(array("q", value), out)
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
    """Encode ``payload`` as one binary frame body (marker included).

    The body is the next piece of ``stream`` — or, without one, the first
    frame of a fresh stream.  A payload whose packed encoding could not fit
    :data:`MAX_FRAME_BYTES` once deflated (the receiver's bound on both the
    wire body and its inflated size) is refused before it is deflated, so
    the stream stays usable.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"frame payload must be a dict, "
                         f"got {type(payload).__name__}")
    packed = bytearray()
    try:
        _encode_value(payload, packed)
    except (struct.error, OverflowError, TypeError) as error:
        raise CodecError(f"payload is not wire-serialisable: {error}") from error
    except RecursionError as error:
        raise CodecError("payload nests too deeply") from error
    # Deflate's worst case (stored blocks) adds 5 bytes per 16 KiB and the
    # flush a few more: bound the packed size so both sides of it fit.
    size = len(packed)
    if size + (size >> 10) + 64 > MAX_FRAME_BYTES:
        raise CodecError(f"binary payload of {size} packed bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte frame limit")
    if stream is None:
        stream = DeflateStream()
    return stream.deflate(packed)


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
    return _decode_value(data, pos)


def _level(data: bytes, pos: int, code: int) -> Tuple[Any, int]:
    """The consistency level behind ``code`` (escaped: the tagged value)."""
    if code < len(_CONSISTENCY_LEVELS):
        return _CONSISTENCY_LEVELS[code], pos
    if code == _OTHER_LEVEL:
        return _decode_value(data, pos)
    raise CodecError(f"unknown consistency code {code:#04x}")


def _check_flags(flags: int, known: int, record: str) -> None:
    if flags & ~known:
        raise CodecError(f"unknown {record} record flags {flags:#04x}")


def trace_from_columns(sizes: MessageSizes, kinds: bytearray,
                       size_bytes: _Column, sources: _Column, dests: _Column,
                       timed_out: Sequence[int]) -> OperationTrace:
    """Adopt received trace columns as an :class:`OperationTrace`.

    The integer columns must already hold ints only; anything else that is
    not four equally long columns of known kind codes, sizes ``>= 0`` and
    endpoints ``>= -1``, with in-range ``timed_out`` indices (repeats count
    once), is a :class:`CodecError`.
    """
    unknown = kinds.translate(None, _KIND_BYTES)
    if unknown:
        raise CodecError(f"unknown message kind code {chr(unknown[0])!r}")
    marked = sorted(set(timed_out))
    count = len(kinds)
    if not len(size_bytes) == len(sources) == len(dests) == count:
        raise CodecError(
            f"trace columns differ in length: {count} kinds, "
            f"{len(size_bytes)} sizes, {len(sources)} sources, "
            f"{len(dests)} dests")
    if count and (min(size_bytes) < 0 or min(sources) < -1 or min(dests) < -1):
        raise CodecError("malformed trace columns: a size below 0 or an endpoint below -1")
    if marked and not 0 <= marked[0] <= marked[-1] < count:
        raise CodecError(f"timed_out index outside a trace of {count} "
                         f"messages: {marked[0]}..{marked[-1]}")
    return OperationTrace(sizes, (kinds, size_bytes, sources, dests, marked))


def _decode_trace(data: bytes, pos: int) -> Tuple[OperationTrace, int]:
    """The (untagged) trace record at ``pos`` and the offset behind it."""
    control_bytes, data_bytes, count, lists = _TRACE_HEAD.unpack_from(data, pos)
    _check_flags(lists, sum(_LIST_COLUMNS), "trace")
    start, pos = _span(data, pos + _TRACE_HEAD.size, count)
    kinds = bytearray(data[start:pos])
    columns: List[_Column] = []
    for flag in _LIST_COLUMNS:
        if lists & flag:
            values, pos = _decode_value(data, pos)
            if type(values) is not list or not set(map(type, values)) <= {int}:
                raise CodecError("malformed trace columns: a list column "
                                 "holds something other than integers")
            columns.append(values)
        else:
            column, pos = _decode_int64s(data, pos, count)
            columns.append(column)
    timed_out, pos = _decode_int64s(data, pos + 4, _U32_AT(data, pos)[0])
    size_bytes, sources, dests = columns
    return trace_from_columns(MessageSizes(control_bytes, data_bytes), kinds,
                              size_bytes, sources, dests, timed_out), pos


def _decode_insert(data: bytes, pos: int,
                   trace: Optional[OperationTrace]) -> Tuple[InsertResult, int]:
    """The insert record at ``pos``; ``trace`` is its batch's shared trace."""
    flags, written, attempted, counter = _INSERT_HEAD.unpack_from(data, pos)
    _check_flags(flags, _INSERT_FLAGS, "insert")
    key, pos = _decode_value(data, pos + _INSERT_HEAD.size)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    version, pos = _decode_value(data, pos)
    service, pos = _decode_value(data, pos)
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
    key, pos = _decode_value(data, pos + _RETRIEVE_HEAD.size)
    value, pos = _decode_value(data, pos)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    latest, pos = _stamp(data, pos, key, flags & _OWN_LATEST, latest_counter)
    version, pos = _decode_value(data, pos)
    service, pos = _decode_value(data, pos)
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


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
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
            result[key], pos = _decode_value(data, pos)
        return result, pos
    if tag == _TAG_LIST:
        count = _U32_AT(data, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
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
        key, pos = _decode_value(data, pos)
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


def unpack_payload(body: bytes, *,
                   stream: Optional["zlib._Decompress"] = None) -> Dict[str, Any]:
    """Decode one binary frame body (``0x01`` or ``0x02`` marker) to its payload.

    A ``0x02`` body is inflated by ``stream``, its connection's inflater —
    or, without one, as the first frame of a fresh stream.
    """
    if not body:
        raise CodecError("empty frame body")
    marker = body[0]
    start = 1
    if marker == MARKER_COMPRESSED:
        body = _inflate(body, zlib.decompressobj(-zlib.MAX_WBITS)
                        if stream is None else stream)
        start = 0
    elif marker != MARKER_BINARY:
        raise CodecError(f"unknown binary body marker {marker:#04x}")
    try:
        payload, end = _decode_value(body, start)
    except (IndexError, struct.error) as error:
        raise CodecError(f"truncated binary body: {error}") from error
    except RecursionError as error:
        raise CodecError("binary body nests too deeply") from error
    if end != len(body):
        raise CodecError("trailing bytes after the binary payload")
    if not isinstance(payload, dict):
        raise CodecError(f"frame body must decode to an object, "
                         f"got {type(payload).__name__}")
    return payload
