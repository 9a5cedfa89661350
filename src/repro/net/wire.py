"""The binary frame bodies of the service-mode wire protocol.

The transport's frames are ``length || body``, the length a 1- to 4-byte
varint (see :mod:`repro.net.codec`).  A body is the tagged encoding of one
payload dict, behind a one-byte marker:

========  =============================================================
marker    body
========  =============================================================
``0x02``  the next piece of the connection's deflate stream, inflating to
          one tagged encoding
========  =============================================================

Any other marker is refused.

**One deflate stream per connection and direction** — WebSocket's
permessage-deflate with context takeover (RFC 7692).  Every frame a
connection writes is the next piece of one raw-deflate stream
(:class:`DeflateStream`, level 3, no zlib header), ended by a
``Z_SYNC_FLUSH`` whose constant ``00 00 FF FF`` tail the sender strips and
the receiver puts back.  A frame can back-reference everything its
connection sent before it — the record layout and the keys of earlier
frames — and no frame pays for setting up zlib state.  The
receiver keeps one inflater per connection (in
:class:`~repro.net.codec.FrameDecoder`) and must see every frame, in order:
a frame that is corrupt, truncated, inflates past :data:`MAX_FRAME_BYTES` or
ends the stream is a :class:`CodecError`, and there is no resync.  The
sender bounds the *packed* size before deflating, so a payload it refuses
never advances its stream.  Without a ``stream``, :func:`pack_payload`
writes, and :func:`unpack_payload` reads, the first frame of a fresh stream.

The tagged encoding is a deterministic, self-delimiting value stream built
from one tag byte plus big-endian fixed-width fields.  The tags: ``N``/``T``/
``F`` singletons, ``i`` int64, ``I`` a wider int as a decimal string, ``f``
float64, ``s`` string, ``l`` list, ``d`` dict and ``t`` ``Timestamp``; any
other type (``bytes``, an ``array``) is refused at encode time.  Whatever
an application puts in a key or a value comes back as the same value: there
is no tag object to mistake user data for.

**Records.**  The protocol's own objects travel natively, as ``Timestamp``
does: ``w`` an :class:`~repro.api.results.InsertResult`, ``r`` a
:class:`~repro.api.results.RetrieveResult`, ``W``/``R`` the batch results,
and ``o`` a trace.  A result record packs its fixed fields (flags, counts,
the consistency code) in one ``struct`` call; a timestamp of the result's
own key carries only its counter; key, data and the other optional fields
follow in the tagged encoding.  Given the keys of the request a reply
answers (``keys=``, one per record), a record whose key is the request's at
its position, by the rule a timestamp shares it, sets ``_OWN_KEY`` instead
of packing it.  Decoding a flagged record without keys, or a batch whose
count is not the request's, is a :class:`CodecError`.  A trace, a
:class:`~repro.dht.messages.TraceSummary`, travels in one fixed-size record:
the message count, the total bytes, the timeout count and the retry size, as
int32, int64, int32 and int64; its message sizes and hook stay with the
process that recorded it.  A batch carries its one shared summary once and
its per-key records without one.  A received summary is checked: no field
below 0, and no more timeouts than messages.

A dict is a u32 count, then ``count`` keys each followed by its value.  A
key listed in :data:`WIRE_KEYS` — the envelope and request field names — is
**one byte**, its index in that table; any other key is ``0xFF`` plus a
length-prefixed UTF-8 string.  A code never moves (codes are wire protocol,
like the value tags), and there is one key layout: no negotiation,
no fallback.  Keys are emitted in sorted order *of the key
strings*, so equal payloads always produce identical bytes; tuples are
encoded as lists.
"""

from __future__ import annotations

import struct
import zlib
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import TraceSummary

__all__ = [
    "CodecError",
    "DeflateStream",
    "MARKER_COMPRESSED",
    "MAX_FRAME_BYTES",
    "WIRE_KEYS",
    "pack_payload",
    "unpack_payload",
]


class CodecError(ValueError):
    """A frame or payload could not be encoded or decoded."""


#: Hard upper bound on one frame's body, on the wire and inflated,
#: protecting both sides against a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First body byte of a connection's frame: the next piece of its stream.
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
#: length (``s``/``I``/``l``/``d``), an int64 (``i``), a float64 (``f``).
_TAG_U32 = struct.Struct(">cI")
_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")

#: The fixed fields of the records: flags, replicas written and attempted,
#: the own-key timestamp counter (insert); flags, consistency code, replicas
#: inspected, the two own-key counters (retrieve); message count, total
#: bytes, timeout count and retry size (trace summary).
_INSERT_HEAD = struct.Struct(">Bqqq")
_RETRIEVE_HEAD = struct.Struct(">BBqqq")
_SUMMARY = struct.Struct(">iqiq")
_BATCH_HEAD = struct.Struct(">BI")

#: Result flag bits; a record with any other bit set is refused.
_FOUND, _CURRENT, _AMBIGUOUS, _OWN_STAMP, _OWN_LATEST, _OWN_KEY = 1, 2, 4, 8, 16, 32
_INSERT_FLAGS = _OWN_STAMP | _OWN_KEY
_RETRIEVE_FLAGS = _FOUND | _CURRENT | _AMBIGUOUS | _OWN_STAMP | _OWN_LATEST | _OWN_KEY

#: The request key of a record no request named: never a result's own.
_UNNAMED: Any = object()

#: Consistency levels as one-byte codes, append-only like the key codes;
#: ``0xFF`` escapes to a tagged value for any other level.
_CONSISTENCY_LEVELS = (Consistency.CURRENT, Consistency.ANY,
                       Consistency.BEST_EFFORT)
_CONSISTENCY_CODES = {level: code for code, level in enumerate(_CONSISTENCY_LEVELS)}
_OTHER_LEVEL = 0xFF

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
 _TAG_LIST, _TAG_DICT, _TAG_TIMESTAMP, _TAG_TRACE, _TAG_INSERT,
 _TAG_RETRIEVE, _TAG_BATCH_INSERT, _TAG_BATCH_RETRIEVE) = b"NTFiIfsldtowrWR"

_U32_AT = _U32.unpack_from
_I64_AT = _I64.unpack_from
_F64_AT = struct.Struct(">d").unpack_from


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
        _pack(item, out)


def _encode_dict(value: Dict[Any, Any], out: bytearray,
                 request_keys: Optional[Sequence[Any]] = None) -> None:
    """Append a dict; with ``request_keys``, a reply (its ``result`` gets them)."""
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
        item = value[key]
        if request_keys is not None and key == "result" and type(item) in _RESULTS:
            out.append(_RECORDS[type(item)][0])
            _RESULTS[type(item)](item, out, request_keys)
        else:
            _pack(item, out)


def _encode_timestamp(stamp: Timestamp, out: bytearray) -> None:
    _pack(stamp.key, out)
    out += _I64.pack(stamp.value)


def _is_own(own: Any, key: Any) -> bool:
    """Whether ``own`` need not travel to a receiver that has ``key``: the same
    object, or an equal str or int of its type (``1``, ``True``, ``1.0`` differ)."""
    return own is key or (type(own) is type(key) and type(key) in (str, int)
                          and own == key)


def _own_counter(stamp: Any, key: Any) -> Optional[int]:
    """``stamp``'s counter if it is a timestamp of ``key`` itself."""
    if type(stamp) is Timestamp and _is_own(stamp.key, key):
        return stamp.value
    return None


def _named(keys: Optional[Sequence[Any]], count: int) -> Iterable[Any]:
    """The request's key of each of ``count`` records, in order."""
    if keys is None:
        return repeat(_UNNAMED, count)
    if len(keys) != count:
        raise CodecError(f"{count} result records answer a request for "
                         f"{len(keys)} keys")
    return keys


def _encode_summary(trace: TraceSummary, out: bytearray) -> None:
    """Append a trace's summary record (untagged)."""
    if type(trace) is not TraceSummary:
        raise CodecError(f"a result's trace must be a TraceSummary, "
                         f"got {type(trace).__name__}")
    out += _SUMMARY.pack(trace.message_count, trace.total_bytes,
                         trace.timeout_count, trace.retry_bytes)


def _encode_insert(result: InsertResult, out: bytearray, named: Any = _UNNAMED,
                   *, with_trace: bool = True) -> None:
    """Append an insert record (untagged; a batch's carry no trace), answering
    a request that ``named`` a key."""
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    own = _is_own(key, named)
    out += _INSERT_HEAD.pack((0 if stamp is None else _OWN_STAMP)
                             | (_OWN_KEY if own else 0),
                             result.replicas_written, result.replicas_attempted,
                             stamp or 0)
    if not own:
        _pack(key, out)
    if stamp is None:
        _pack(result.timestamp, out)
    _pack(result.version, out)
    _pack(result.service, out)
    if with_trace:
        _encode_summary(result.trace, out)


def _encode_retrieve(result: RetrieveResult, out: bytearray,
                     named: Any = _UNNAMED, *, with_trace: bool = True) -> None:
    """Append a retrieve record (untagged; a batch's carry no trace),
    answering a request that ``named`` a key."""
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    latest = _own_counter(result.latest_timestamp, key)
    own = _is_own(key, named)
    code = _CONSISTENCY_CODES.get(result.consistency, _OTHER_LEVEL)
    flags = ((_FOUND if result.found else 0)
             | (_CURRENT if result.is_current else 0)
             | (_AMBIGUOUS if result.ambiguous else 0)
             | (0 if stamp is None else _OWN_STAMP)
             | (0 if latest is None else _OWN_LATEST)
             | (_OWN_KEY if own else 0))
    out += _RETRIEVE_HEAD.pack(flags, code, result.replicas_inspected,
                               stamp or 0, latest or 0)
    if not own:
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
        _encode_summary(result.trace, out)


def _encode_batch_insert(batch: BatchInsertResult, out: bytearray,
                         keys: Optional[Sequence[Any]] = None) -> None:
    results = batch.results
    named = _named(keys, len(results))
    out += _U32.pack(len(results))
    _encode_summary(batch.trace, out)
    for result, key in zip(results, named):
        _encode_insert(result, out, key, with_trace=False)


def _encode_batch_retrieve(batch: BatchRetrieveResult, out: bytearray,
                           keys: Optional[Sequence[Any]] = None) -> None:
    results = batch.results
    named = _named(keys, len(results))
    code = _CONSISTENCY_CODES.get(batch.consistency, _OTHER_LEVEL)
    out += _BATCH_HEAD.pack(code, len(results))
    if code == _OTHER_LEVEL:
        _pack(batch.consistency, out)
    _encode_summary(batch.trace, out)
    for result, key in zip(results, named):
        _encode_retrieve(result, out, key, with_trace=False)


#: The result records' encoders given their request's keys, by exact type.
_RESULTS: Dict[type, Callable[..., None]] = {
    InsertResult: lambda result, out, keys: _encode_insert(
        result, out, *_named(keys, 1)),
    RetrieveResult: lambda result, out, keys: _encode_retrieve(
        result, out, *_named(keys, 1)),
    BatchInsertResult: _encode_batch_insert,
    BatchRetrieveResult: _encode_batch_retrieve,
}

#: The objects with a tag of their own, by exact type: the tag and the
#: encoder of what follows it.
_RECORDS: Dict[type, Tuple[int, Callable[[Any, bytearray], None]]] = {
    Timestamp: (_TAG_TIMESTAMP, _encode_timestamp),
    TraceSummary: (_TAG_TRACE, _encode_summary),
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
                 stream: Optional[DeflateStream] = None,
                 keys: Optional[Sequence[Any]] = None) -> bytes:
    """Encode ``payload`` as one frame body (marker included).

    The body is the next piece of ``stream`` — or, without one, the first
    frame of a fresh stream; a reply's result leaves out its request's
    ``keys``.  A payload whose packed encoding could not
    fit :data:`MAX_FRAME_BYTES` once deflated (the receiver's bound on both
    the wire body and its inflated size) is refused before it is deflated,
    so the stream stays usable; so is one that fails mid-pack.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"frame payload must be a dict, "
                         f"got {type(payload).__name__}")
    packed = bytearray()
    try:
        _encode_dict(payload, packed, keys)
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
    return (DeflateStream() if stream is None else stream).deflate(packed)


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


def _record_key(data: bytes, pos: int, flags: int,
                named: Any) -> Tuple[Any, int]:
    """A record's key: tagged, or (``_OWN_KEY``) the one its request ``named``."""
    if not flags & _OWN_KEY:
        return _unpack(data, pos)
    if named is _UNNAMED:
        raise CodecError("a record leaves out its key, but no request keys "
                         "were given")
    return named, pos


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


def _decode_summary(data: bytes, pos: int) -> Tuple[TraceSummary, int]:
    """The (untagged) summary record at ``pos`` and the offset behind it.

    Adopted once no field is below 0 and its timeouts are among its
    messages; anything else is a :class:`CodecError`.
    """
    messages, total, timeouts, retry = _SUMMARY.unpack_from(data, pos)
    if min(messages, total, timeouts, retry) < 0:
        raise CodecError("malformed trace summary: a field below 0")
    if timeouts > messages:
        raise CodecError(f"malformed trace summary: {timeouts} timeouts in "
                         f"{messages} messages")
    return TraceSummary(messages, total, timeouts, retry), pos + _SUMMARY.size


def _decode_insert(data: bytes, pos: int, trace: Optional[TraceSummary],
                   named: Any = _UNNAMED) -> Tuple[InsertResult, int]:
    """The insert record at ``pos``; ``trace`` is its batch's shared summary,
    ``named`` its request's key."""
    flags, written, attempted, counter = _INSERT_HEAD.unpack_from(data, pos)
    _check_flags(flags, _INSERT_FLAGS, "insert")
    key, pos = _record_key(data, pos + _INSERT_HEAD.size, flags, named)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    if trace is None:
        trace, pos = _decode_summary(data, pos)
    return InsertResult(key=key, replicas_written=written,
                        replicas_attempted=attempted, trace=trace,
                        timestamp=stamp, version=version, service=service), pos


def _decode_retrieve(data: bytes, pos: int, trace: Optional[TraceSummary],
                     named: Any = _UNNAMED) -> Tuple[RetrieveResult, int]:
    """The retrieve record at ``pos``; ``trace`` is its batch's shared
    summary, ``named`` its request's key."""
    flags, code, inspected, counter, latest_counter = \
        _RETRIEVE_HEAD.unpack_from(data, pos)
    _check_flags(flags, _RETRIEVE_FLAGS, "retrieve")
    key, pos = _record_key(data, pos + _RETRIEVE_HEAD.size, flags, named)
    value, pos = _unpack(data, pos)
    stamp, pos = _stamp(data, pos, key, flags & _OWN_STAMP, counter)
    latest, pos = _stamp(data, pos, key, flags & _OWN_LATEST, latest_counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    consistency, pos = _level(data, pos, code)
    if trace is None:
        trace, pos = _decode_summary(data, pos)
    return RetrieveResult(key=key, data=value, found=bool(flags & _FOUND),
                          is_current=bool(flags & _CURRENT),
                          replicas_inspected=inspected, trace=trace,
                          timestamp=stamp, latest_timestamp=latest,
                          version=version, ambiguous=bool(flags & _AMBIGUOUS),
                          consistency=consistency, service=service), pos


def _decode_batch_insert(data: bytes, pos: int,
                         keys: Optional[Sequence[Any]] = None
                         ) -> Tuple[BatchInsertResult, int]:
    count = _U32_AT(data, pos)[0]
    named = _named(keys, count)
    trace, pos = _decode_summary(data, pos + 4)
    results = []
    for key in named:
        result, pos = _decode_insert(data, pos, trace, key)
        results.append(result)
    return BatchInsertResult(results=tuple(results), trace=trace), pos


def _decode_batch_retrieve(data: bytes, pos: int,
                           keys: Optional[Sequence[Any]] = None
                           ) -> Tuple[BatchRetrieveResult, int]:
    code, count = _BATCH_HEAD.unpack_from(data, pos)
    named = _named(keys, count)
    consistency, pos = _level(data, pos + _BATCH_HEAD.size, code)
    trace, pos = _decode_summary(data, pos)
    results = []
    for key in named:
        result, pos = _decode_retrieve(data, pos, trace, key)
        results.append(result)
    return BatchRetrieveResult(results=tuple(results), trace=trace,
                               consistency=consistency), pos


def _unpack(data: bytes, pos: int) -> Tuple[Any, int]:
    """The tagged value at ``pos`` and the offset behind it.

    Every read is bounds-checked: a tag, a key code or a fixed-width field
    past the end raises ``IndexError``/``struct.error`` (``unpack_from``
    checks the buffer itself), which :func:`unpack_payload` reports as a
    truncated body; a counted field (a string) goes through
    :func:`_span`.
    """
    tag = data[pos]
    pos += 1
    if tag == _TAG_STR:
        return _decode_str(data, pos)
    if tag == _TAG_INT:
        return _I64_AT(data, pos)[0], pos + 8
    if tag == _TAG_DICT:
        return _decode_dict(data, pos)
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
    if tag in _RESULT_DECODERS:
        return _RESULT_DECODERS[tag](data, pos, None)
    if tag == _TAG_TRACE:
        return _decode_summary(data, pos)
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


#: The result records' decoders given their request's keys, by tag.
_RESULT_DECODERS: Dict[int, Callable[..., Tuple[Any, int]]] = {
    _TAG_INSERT: lambda data, pos, keys: _decode_insert(
        data, pos, None, *_named(keys, 1)),
    _TAG_RETRIEVE: lambda data, pos, keys: _decode_retrieve(
        data, pos, None, *_named(keys, 1)),
    _TAG_BATCH_INSERT: _decode_batch_insert,
    _TAG_BATCH_RETRIEVE: _decode_batch_retrieve,
}


def _decode_dict(data: bytes, pos: int,
                 request_keys: Optional[Sequence[Any]] = None
                 ) -> Tuple[Dict[str, Any], int]:
    """The dict behind its tag; with ``request_keys``, a reply's (its
    ``result`` gets them)."""
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
        if request_keys is not None and key == "result" \
                and data[pos] in _RESULT_DECODERS:
            result[key], pos = _RESULT_DECODERS[data[pos]](data, pos + 1,
                                                            request_keys)
        else:
            result[key], pos = _unpack(data, pos)
    return result, pos


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
                   stream: Optional["zlib._Decompress"] = None,
                   keys: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
    """Decode one ``0x02`` frame body to its payload.

    The body is inflated by ``stream``, its connection's raw-deflate
    inflater — or, without one, as the first frame of a fresh stream.  A
    reply's result gets back the ``keys`` its request named.
    """
    if not body:
        raise CodecError("empty frame body")
    if body[0] != MARKER_COMPRESSED:
        raise CodecError(f"unknown body marker {body[0]:#04x}")
    body = _inflate(body, zlib.decompressobj(-zlib.MAX_WBITS)
                    if stream is None else stream)
    try:
        if body[0] != _TAG_DICT:
            raise CodecError("frame body must decode to an object")
        payload, end = _decode_dict(body, 1, keys)
    except (IndexError, struct.error) as error:
        raise CodecError(f"truncated binary body: {error}") from error
    except RecursionError as error:
        raise CodecError("binary body nests too deeply") from error
    if end != len(body):
        raise CodecError("trailing bytes after the binary payload")
    return payload
