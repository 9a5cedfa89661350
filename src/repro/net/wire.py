"""The binary frame bodies of the service-mode wire protocol.

The transport's frames are ``length || body``, the length a 1- to 4-byte
varint (see :mod:`repro.net.codec`).  A body is the packed encoding of one
payload dict, behind a one-byte marker:

========  =============================================================
marker    body
========  =============================================================
``0x02``  the next piece of the connection's deflate stream, inflating to
          one packed payload
========  =============================================================

Any other marker is refused.

**One deflate stream per connection and direction** — WebSocket's
permessage-deflate with context takeover (RFC 7692).  Every frame a
connection writes is the next piece of one raw-deflate stream
(:class:`DeflateStream`, level 3, no zlib header), ended by a
``Z_SYNC_FLUSH`` whose constant ``00 00 FF FF`` tail the sender strips and
the receiver puts back.  A frame can back-reference everything its
connection sent before it — the record layouts and the keys of earlier
frames — and no frame pays for setting up zlib state.  The
receiver keeps one inflater per connection (in
:class:`~repro.net.codec.FrameDecoder`) and must see every frame, in order:
a frame that is corrupt, truncated, inflates past :data:`MAX_FRAME_BYTES` or
ends the stream is a :class:`CodecError`, and there is no resync.  The
sender bounds the *packed* size before deflating, so a payload it refuses
never advances its stream.  Without a ``stream``, :func:`pack_payload`
writes, and :func:`unpack_payload` reads, the first frame of a fresh stream.

**Numbers.**  Every integer the layout writes — a length, a count, an id, a
record field, a counter, a summary field — is an unsigned LEB128 varint in
its shortest form (seven bits a byte, low bits first, so below 128 is one
byte).  A varint that is longer than its shortest form or holds more than 64
bits is a :class:`CodecError`; a negative value, or one of ``2**64`` or
more, is refused at encode, before the stream moves.

**Tagged values**: ``N``/``T``/``F`` singletons, ``i`` an int64 as its
zigzag varint (``0, -1, 1`` as ``0, 1, 2``), ``I`` a wider int as a decimal
string, ``f`` a big-endian float64, ``s`` a string (varint length, UTF-8),
``l`` a list (count, values), ``d`` a dict (count, then each key as a
length-prefixed string and its value, in sorted key order, so equal
payloads are equal bytes) and ``t`` a ``Timestamp`` (tagged key, counter).
Tuples travel as lists; any other type (``bytes``, an ``array``) is refused
at encode.

**Frames are records.**  A packed payload starts with the tag of its shape:
``Q`` a request (op code, presence flags and consistency code a byte each,
the varint id, then its flagged optional fields and its required ones,
tagged, in :data:`_FIELDS` order, and last a level that has no code), ``A``
an answer (``ok`` true: the varint id, then the result), ``E`` an error
(``ok`` false: the varint id, then the text).  Any other dict — an unknown
op, a field too many or too few, an id that is no 64-bit unsigned ``int`` —
travels as a tagged ``d`` dict.  A field is flagged whenever the payload has
it, so every payload comes back equal.

**Result records**: ``w`` an :class:`~repro.api.results.InsertResult`,
``r`` a :class:`~repro.api.results.RetrieveResult`, ``W``/``R`` the batch
results and ``o`` a trace.  A point record opens with its trace summary,
then its flags (and a retrieve's consistency code) and counts; a timestamp
of the result's own key carries only its counter; key, data and the other
fields follow tagged.  Given the keys of the request an answer replies to
(``keys=``, one per record), a record whose key is the request's at its
position, by the rule a timestamp shares it, sets ``_OWN_KEY`` instead of
packing it; decoding one without keys, or a batch whose count is not the
request's, is a :class:`CodecError`.  A trace, a
:class:`~repro.dht.messages.TraceSummary`, travels as its message count,
total bytes, timeout count and retry size (its sizes and hook stay with the
process that recorded it), and is refused with more timeouts than
messages.  A batch carries its one shared summary once.
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

#: The largest varint, and the first int the ``i`` tag no longer holds.
_VARINT_MAX = (1 << 64) - 1
_INT64 = 1 << 63
_TAG_F64 = struct.Struct(">cd")
_F64_AT = struct.Struct(">d").unpack_from

#: Result flag bits; a record with any other bit set is refused.
_FOUND, _CURRENT, _AMBIGUOUS, _OWN_STAMP, _OWN_LATEST, _OWN_KEY = 1, 2, 4, 8, 16, 32
_INSERT_FLAGS = _OWN_STAMP | _OWN_KEY
_RETRIEVE_FLAGS = _FOUND | _CURRENT | _AMBIGUOUS | _OWN_STAMP | _OWN_LATEST | _OWN_KEY

#: The request key of a record no request named: never a result's own.
_UNNAMED: Any = object()

#: Consistency levels as one-byte codes, append-only like the op codes;
#: ``0xFF`` escapes to a tagged value for any other level.
_CONSISTENCY_LEVELS = (Consistency.CURRENT, Consistency.ANY,
                       Consistency.BEST_EFFORT)
_CONSISTENCY_CODES = {level: code for code, level in enumerate(_CONSISTENCY_LEVELS)}
_OTHER_LEVEL = 0xFF

#: A request's fields, each a bit of its field mask.  The first seven bits
#: are a record's presence flags, and every field but ``id``, ``op`` and
#: ``consistency`` (which travels as the record's consistency code) is packed
#: in bit order.
_FIELDS = ("service", "data", "origin", "unreachable", "max_probes", "keys",
           "consistency", "key", "items", "id", "op")
_FIELD_BITS = {name: 1 << bit for bit, name in enumerate(_FIELDS)}
(_SERVICE, _DATA, _ORIGIN, _UNREACHABLE, _MAX_PROBES, _KEYS, _CONSISTENCY,
 _KEY, _ITEMS, _ID, _OP) = _FIELD_BITS.values()
_FLAGS = 0x7F
#: The bit of a field no request has, in no op's mask (nor is a sum of them).
_OTHER_FIELD = repeat(1 << len(_FIELDS))
_ROUTED = _SERVICE | _ORIGIN | _UNREACHABLE
_READ = _ROUTED | _MAX_PROBES | _CONSISTENCY

#: The requests' shapes: an op's index is its wire code (append-only, like
#: the value tags), then the fields it must carry and those it may — what
#: ``RemoteService`` sends and ``NodeServer`` reads, and the service name on
#: any op.
_OPS: Tuple[Tuple[str, int, int], ...] = (
    ("insert", _KEY, _ROUTED | _DATA),
    ("retrieve", _KEY, _READ),
    ("insert_many", _ITEMS, _ROUTED),
    ("retrieve_many", _KEYS, _READ),
    ("ping", 0, _SERVICE),
    ("info", 0, _SERVICE),
    ("sync", 0, _SERVICE | _KEYS),
    ("shutdown", 0, _SERVICE),
)

#: Each op's code, the mask its fields must cover and the mask they stay
#: within, by name.
_REQUESTS: Dict[str, Tuple[int, int, int]] = {
    op: (code, _ID | _OP | required, _ID | _OP | required | optional)
    for code, (op, required, optional) in enumerate(_OPS)}

#: The packed fields of every valid ``(op code, presence flags)``, in order.
_PACKED: Dict[Tuple[int, int], Tuple[str, ...]] = {
    (code, flags): tuple(name for bit, name in enumerate(_FIELDS[:9])
                         if mask & 1 << bit and name != "consistency")
    for code, (_op, required, optional) in enumerate(_OPS)
    for flags in range(_FLAGS + 1)
    for mask in [flags | required & ~_FLAGS]
    if mask & required == required and not mask & ~(required | optional)}

# Value tags as the integers that indexing a ``bytes`` body yields; the
# ``Q``/``A``/``E`` records only ever start a payload.
(_TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_BIGINT, _TAG_FLOAT, _TAG_STR,
 _TAG_LIST, _TAG_DICT, _TAG_TIMESTAMP, _TAG_TRACE, _TAG_INSERT,
 _TAG_RETRIEVE, _TAG_BATCH_INSERT, _TAG_BATCH_RETRIEVE, _TAG_REQUEST,
 _TAG_ANSWER, _TAG_ERROR) = b"NTFiIfsldtowrWRQAE"


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
def _put_varint(value: int, out: bytearray) -> None:
    """Append ``value`` as its shortest unsigned LEB128 varint."""
    if not value >> 7:  # a negative value shifts to -1
        out.append(value)
        return
    if not value >> 14:
        out.append(value & 0x7F | 0x80)
        out.append(value >> 7)
        return
    if value < 0 or value > _VARINT_MAX:
        raise CodecError(f"{value} does not fit an unsigned 64-bit varint")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_text(text: str, out: bytearray) -> None:
    """Append ``text`` as a length-prefixed UTF-8 string (untagged)."""
    raw = text.encode("utf-8")
    size = len(raw)
    if size < 0x80:
        out.append(size)
    else:
        _put_varint(size, out)
    out += raw


def _encode_int(value: int, out: bytearray) -> None:
    if -_INT64 <= value < _INT64:
        out.append(_TAG_INT)
        _put_varint((value << 1) ^ (value >> 63), out)
    else:
        # Wider than int64: the decimal-string tag, so arbitrary Python ints
        # survive the round trip.
        out.append(_TAG_BIGINT)
        _put_text(str(value), out)


def _encode_list(values: Sequence[Any], out: bytearray) -> None:
    out.append(_TAG_LIST)
    _put_varint(len(values), out)
    for item in values:
        _pack(item, out)


def _encode_dict(value: Dict[Any, Any], out: bytearray) -> None:
    out.append(_TAG_DICT)
    _put_varint(len(value), out)
    try:
        keys = sorted(value)
    except TypeError:
        keys = list(value)  # mixed key types: the loop below names the culprit
    for key in keys:
        if not isinstance(key, str):
            raise CodecError(f"binary payload dict keys must be strings, "
                             f"got {type(key).__name__}")
        _put_text(key, out)
        _pack(value[key], out)


def _encode_timestamp(stamp: Timestamp, out: bytearray) -> None:
    _pack(stamp.key, out)
    _put_varint(stamp.value, out)


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
    _put_varint(trace.message_count, out)
    _put_varint(trace.total_bytes, out)
    _put_varint(trace.timeout_count, out)
    _put_varint(trace.retry_bytes, out)


def _encode_insert(result: InsertResult, out: bytearray, named: Any = _UNNAMED,
                   *, with_trace: bool = True) -> None:
    """Append an insert record (untagged; a batch's carry no trace), answering
    a request that ``named`` a key."""
    if with_trace:
        _encode_summary(result.trace, out)
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    own = _is_own(key, named)
    out.append((0 if stamp is None else _OWN_STAMP) | (_OWN_KEY if own else 0))
    _put_varint(result.replicas_written, out)
    _put_varint(result.replicas_attempted, out)
    if stamp is not None:
        _put_varint(stamp, out)
    if not own:
        _pack(key, out)
    if stamp is None:
        _pack(result.timestamp, out)
    _pack(result.version, out)
    _pack(result.service, out)


def _encode_retrieve(result: RetrieveResult, out: bytearray,
                     named: Any = _UNNAMED, *, with_trace: bool = True) -> None:
    """Append a retrieve record (untagged; a batch's carry no trace),
    answering a request that ``named`` a key."""
    if with_trace:
        _encode_summary(result.trace, out)
    key = result.key
    stamp = _own_counter(result.timestamp, key)
    latest = _own_counter(result.latest_timestamp, key)
    own = _is_own(key, named)
    code = _CONSISTENCY_CODES.get(result.consistency, _OTHER_LEVEL)
    out.append((_FOUND if result.found else 0)
               | (_CURRENT if result.is_current else 0)
               | (_AMBIGUOUS if result.ambiguous else 0)
               | (0 if stamp is None else _OWN_STAMP)
               | (0 if latest is None else _OWN_LATEST)
               | (_OWN_KEY if own else 0))
    out.append(code)
    _put_varint(result.replicas_inspected, out)
    if stamp is not None:
        _put_varint(stamp, out)
    if latest is not None:
        _put_varint(latest, out)
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


def _encode_batch_insert(batch: BatchInsertResult, out: bytearray,
                         keys: Optional[Sequence[Any]] = None) -> None:
    results = batch.results
    named = _named(keys, len(results))
    _put_varint(len(results), out)
    _encode_summary(batch.trace, out)
    for result, key in zip(results, named):
        _encode_insert(result, out, key, with_trace=False)


def _encode_batch_retrieve(batch: BatchRetrieveResult, out: bytearray,
                           keys: Optional[Sequence[Any]] = None) -> None:
    results = batch.results
    named = _named(keys, len(results))
    code = _CONSISTENCY_CODES.get(batch.consistency, _OTHER_LEVEL)
    out.append(code)
    _put_varint(len(results), out)
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
    if value is None:
        out.append(_TAG_NONE)
        return
    kind = type(value)
    if kind is str:
        out.append(_TAG_STR)
        _put_text(value, out)
    elif kind is int:
        _encode_int(value, out)
    elif kind is dict:
        _encode_dict(value, out)
    elif kind is list or kind is tuple:
        _encode_list(value, out)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
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
        out.append(_TAG_STR)
        _put_text(value, out)
    elif isinstance(value, (list, tuple)):
        _encode_list(value, out)
    elif isinstance(value, dict):
        _encode_dict(value, out)
    else:
        raise CodecError(f"value of type {type(value).__name__} is not "
                         f"wire-serialisable")


def _is_id(value: Any) -> bool:
    """Whether ``value`` travels as a record's varint id."""
    return type(value) is int and 0 <= value <= _VARINT_MAX


def _request_record(payload: Dict[str, Any]) -> Optional[bytearray]:
    """``payload`` packed as a request record, if it has a request's shape."""
    op = payload["op"]
    shape = _REQUESTS.get(op) if type(op) is str else None
    if shape is None:
        return None
    code, need, allowed = shape
    mask = sum(map(_FIELD_BITS.get, payload, _OTHER_FIELD))
    request_id = payload.get("id")
    if mask & need != need or mask & ~allowed or not _is_id(request_id):
        return None
    flags = mask & _FLAGS
    level_code = 0
    if flags & _CONSISTENCY:
        level = payload["consistency"]
        level_code = _CONSISTENCY_CODES.get(level, _OTHER_LEVEL) \
            if type(level) is str else _OTHER_LEVEL
    out = bytearray((_TAG_REQUEST, code, flags, level_code))
    _put_varint(request_id, out)
    for name in _PACKED[code, flags]:
        _pack(payload[name], out)
    if level_code == _OTHER_LEVEL:
        _pack(level, out)
    return out


def _reply_record(payload: Dict[str, Any],
                  keys: Optional[Sequence[Any]]) -> Optional[bytearray]:
    """``payload`` packed as an answer or error record, if it has the shape of
    one; an answer's result record leaves out its request's ``keys``."""
    request_id = payload.get("id")
    if len(payload) != 3 or not _is_id(request_id):
        return None
    ok = payload["ok"]
    if ok is True and "result" in payload:
        out = bytearray((_TAG_ANSWER,))
        _put_varint(request_id, out)
        result = payload["result"]
        encode = _RESULTS.get(type(result))
        if encode is None:
            _pack(result, out)
        else:
            out.append(_RECORDS[type(result)][0])
            encode(result, out, keys)
        return out
    error = payload.get("error")
    if ok is False and type(error) is str:
        out = bytearray((_TAG_ERROR,))
        _put_varint(request_id, out)
        _put_text(error, out)
        return out
    return None


def pack_payload(payload: Dict[str, Any], *,
                 stream: Optional[DeflateStream] = None,
                 keys: Optional[Sequence[Any]] = None) -> bytes:
    """Encode ``payload`` as one frame body (marker included).

    The body is the next piece of ``stream`` — or, without one, the first
    frame of a fresh stream; an answer's result leaves out its request's
    ``keys``.  A payload whose packed encoding could not
    fit :data:`MAX_FRAME_BYTES` once deflated (the receiver's bound on both
    the wire body and its inflated size) is refused before it is deflated,
    so the stream stays usable; so is one that fails mid-pack.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"frame payload must be a dict, "
                         f"got {type(payload).__name__}")
    try:
        packed = (_request_record(payload) if "op" in payload
                  else _reply_record(payload, keys) if "ok" in payload
                  else None)
        if packed is None:
            packed = bytearray()
            _encode_dict(payload, packed)
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
def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint at ``pos`` and the offset behind it."""
    value = data[pos]
    if value < 0x80:
        return value, pos + 1
    second = data[pos + 1]
    if 0 < second < 0x80:
        return value & 0x7F | second << 7, pos + 2
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            break
        shift += 7
        if shift > 63:
            raise CodecError(f"varint wider than 64 bits at offset {pos}")
    if byte == 0:
        raise CodecError(f"varint not in its shortest form at offset {pos - 1}")
    if value > _VARINT_MAX:
        raise CodecError(f"varint wider than 64 bits at offset {pos - 1}")
    return value, pos


def _decode_text(data: bytes, pos: int) -> Tuple[str, int]:
    """The length-prefixed UTF-8 string at ``pos`` and the offset behind it.

    Its length is checked before anything is sliced (a slice would silently
    come back short).
    """
    size = data[pos]
    if size < 0x80:
        pos += 1
    else:
        size, pos = _varint(data, pos)
    end = pos + size
    if end > len(data):
        raise CodecError(f"truncated binary body: wanted {size} bytes "
                         f"at offset {pos}, have {len(data)}")
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise CodecError(f"malformed UTF-8 in binary body: {error}") from error


def _record_key(data: bytes, pos: int, flags: int,
                named: Any) -> Tuple[Any, int]:
    """A record's key: tagged, or (``_OWN_KEY``) the one its request ``named``."""
    if not flags & _OWN_KEY:
        return _unpack(data, pos)
    if named is _UNNAMED:
        raise CodecError("a record leaves out its key, but no request keys "
                         "were given")
    return named, pos


def _stamp(data: bytes, pos: int, key: Any,
           counter: Optional[int]) -> Tuple[Any, int]:
    """A record's timestamp field: of its own key (a ``counter``), or tagged."""
    if counter is not None:
        return Timestamp(key=key, value=counter), pos
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

    Adopted once its timeouts are among its messages; anything else is a
    :class:`CodecError`.
    """
    messages, pos = _varint(data, pos)
    total, pos = _varint(data, pos)
    timeouts, pos = _varint(data, pos)
    retry, pos = _varint(data, pos)
    if timeouts > messages:
        raise CodecError(f"malformed trace summary: {timeouts} timeouts in "
                         f"{messages} messages")
    return TraceSummary(messages, total, timeouts, retry), pos


def _decode_insert(data: bytes, pos: int, trace: Optional[TraceSummary],
                   named: Any = _UNNAMED) -> Tuple[InsertResult, int]:
    """The insert record at ``pos``; ``trace`` is its batch's shared summary,
    ``named`` its request's key."""
    if trace is None:
        trace, pos = _decode_summary(data, pos)
    flags = data[pos]
    _check_flags(flags, _INSERT_FLAGS, "insert")
    written, pos = _varint(data, pos + 1)
    attempted, pos = _varint(data, pos)
    counter = None
    if flags & _OWN_STAMP:
        counter, pos = _varint(data, pos)
    key, pos = _record_key(data, pos, flags, named)
    stamp, pos = _stamp(data, pos, key, counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    return InsertResult(key=key, replicas_written=written,
                        replicas_attempted=attempted, trace=trace,
                        timestamp=stamp, version=version, service=service), pos


def _decode_retrieve(data: bytes, pos: int, trace: Optional[TraceSummary],
                     named: Any = _UNNAMED) -> Tuple[RetrieveResult, int]:
    """The retrieve record at ``pos``; ``trace`` is its batch's shared
    summary, ``named`` its request's key."""
    if trace is None:
        trace, pos = _decode_summary(data, pos)
    flags, code = data[pos], data[pos + 1]
    _check_flags(flags, _RETRIEVE_FLAGS, "retrieve")
    inspected, pos = _varint(data, pos + 2)
    counter = latest_counter = None
    if flags & _OWN_STAMP:
        counter, pos = _varint(data, pos)
    if flags & _OWN_LATEST:
        latest_counter, pos = _varint(data, pos)
    key, pos = _record_key(data, pos, flags, named)
    value, pos = _unpack(data, pos)
    stamp, pos = _stamp(data, pos, key, counter)
    latest, pos = _stamp(data, pos, key, latest_counter)
    version, pos = _unpack(data, pos)
    service, pos = _unpack(data, pos)
    consistency, pos = _level(data, pos, code)
    return RetrieveResult(key=key, data=value, found=bool(flags & _FOUND),
                          is_current=bool(flags & _CURRENT),
                          replicas_inspected=inspected, trace=trace,
                          timestamp=stamp, latest_timestamp=latest,
                          version=version, ambiguous=bool(flags & _AMBIGUOUS),
                          consistency=consistency, service=service), pos


def _record_count(data: bytes, pos: int) -> Tuple[int, int]:
    """A batch's record count and the offset behind it; a count the rest of
    the body cannot hold (a record is at least a byte) is refused."""
    count, pos = _varint(data, pos)
    if count > len(data) - pos:
        raise CodecError(f"truncated binary body: {count} records in "
                         f"{len(data) - pos} bytes")
    return count, pos


def _decode_batch_insert(data: bytes, pos: int,
                         keys: Optional[Sequence[Any]] = None
                         ) -> Tuple[BatchInsertResult, int]:
    count, pos = _record_count(data, pos)
    named = _named(keys, count)
    trace, pos = _decode_summary(data, pos)
    results = []
    for key in named:
        result, pos = _decode_insert(data, pos, trace, key)
        results.append(result)
    return BatchInsertResult(results=tuple(results), trace=trace), pos


def _decode_batch_retrieve(data: bytes, pos: int,
                           keys: Optional[Sequence[Any]] = None
                           ) -> Tuple[BatchRetrieveResult, int]:
    code = data[pos]
    count, pos = _record_count(data, pos + 1)
    named = _named(keys, count)
    consistency, pos = _level(data, pos, code)
    trace, pos = _decode_summary(data, pos)
    results = []
    for key in named:
        result, pos = _decode_retrieve(data, pos, trace, key)
        results.append(result)
    return BatchRetrieveResult(results=tuple(results), trace=trace,
                               consistency=consistency), pos


def _unpack(data: bytes, pos: int) -> Tuple[Any, int]:
    """The tagged value at ``pos`` and the offset behind it.

    Every read is bounds-checked: a tag, a varint byte or a float past the
    end raises ``IndexError``/``struct.error`` (``unpack_from`` checks the
    buffer itself), which :func:`unpack_payload` reports as a truncated body;
    a string's length is checked by :func:`_decode_text`.
    """
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_STR:
        return _decode_text(data, pos)
    if tag == _TAG_INT:
        value = data[pos]
        if value < 0x80:
            pos += 1
        else:
            value, pos = _varint(data, pos)
        return (value >> 1) ^ -(value & 1), pos
    if tag == _TAG_DICT:
        return _decode_dict(data, pos)
    if tag == _TAG_LIST:
        count, pos = _varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _unpack(data, pos)
            items.append(item)
        return items, pos
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
        counter, pos = _varint(data, pos)
        return Timestamp(key=key, value=counter), pos
    if tag == _TAG_FLOAT:
        return _F64_AT(data, pos)[0], pos + 8
    if tag == _TAG_BIGINT:
        text, pos = _decode_text(data, pos)
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


def _decode_dict(data: bytes, pos: int) -> Tuple[Dict[str, Any], int]:
    """The dict behind its tag and the offset behind it."""
    count, pos = _varint(data, pos)
    result: Dict[str, Any] = {}
    for _ in range(count):
        key, pos = _decode_text(data, pos)
        result[key], pos = _unpack(data, pos)
    return result, pos


def _decode_request(data: bytes, pos: int,
                    keys: Optional[Sequence[Any]]) -> Tuple[Dict[str, Any], int]:
    """The request record behind its tag."""
    code, flags, level_code = data[pos], data[pos + 1], data[pos + 2]
    names = _PACKED.get((code, flags))
    if names is None:
        raise CodecError(f"unknown request op code {code:#04x}" if code >= len(_OPS)
                         else f"unknown {_OPS[code][0]} request flags {flags:#04x}")
    if level_code and not flags & _CONSISTENCY:
        raise CodecError(f"a consistency code {level_code:#04x} without "
                         f"a consistency field")
    request_id, pos = _varint(data, pos + 3)
    payload: Dict[str, Any] = {"id": request_id, "op": _OPS[code][0]}
    for name in names:
        payload[name], pos = _unpack(data, pos)
    if flags & _CONSISTENCY:
        payload["consistency"], pos = _level(data, pos, level_code)
    return payload, pos


def _decode_answer(data: bytes, pos: int,
                   keys: Optional[Sequence[Any]]) -> Tuple[Dict[str, Any], int]:
    """The answer record behind its tag: a result record gets ``keys``."""
    request_id, pos = _varint(data, pos)
    decode = _RESULT_DECODERS.get(data[pos])
    if decode is None:
        result, pos = _unpack(data, pos)
    else:
        result, pos = decode(data, pos + 1, keys)
    return {"id": request_id, "ok": True, "result": result}, pos


def _decode_error(data: bytes, pos: int,
                  keys: Optional[Sequence[Any]]) -> Tuple[Dict[str, Any], int]:
    """The error record behind its tag."""
    request_id, pos = _varint(data, pos)
    error, pos = _decode_text(data, pos)
    return {"id": request_id, "ok": False, "error": error}, pos


#: What a packed payload may start with, and the decoder of the rest.
_PAYLOADS: Dict[int, Callable[..., Tuple[Dict[str, Any], int]]] = {
    _TAG_REQUEST: _decode_request,
    _TAG_ANSWER: _decode_answer,
    _TAG_ERROR: _decode_error,
    _TAG_DICT: lambda data, pos, keys: _decode_dict(data, pos),
}


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
    inflater — or, without one, as the first frame of a fresh stream.  An
    answer's result gets back the ``keys`` its request named.
    """
    if not body:
        raise CodecError("empty frame body")
    if body[0] != MARKER_COMPRESSED:
        raise CodecError(f"unknown body marker {body[0]:#04x}")
    body = _inflate(body, zlib.decompressobj(-zlib.MAX_WBITS)
                    if stream is None else stream)
    try:
        decode = _PAYLOADS.get(body[0])
        if decode is None:
            raise CodecError("frame body must decode to an object")
        payload, end = decode(body, 1, keys)
    except (IndexError, struct.error) as error:
        raise CodecError(f"truncated binary body: {error}") from error
    except RecursionError as error:
        raise CodecError("binary body nests too deeply") from error
    if end != len(body):
        raise CodecError("trailing bytes after the binary payload")
    return payload
