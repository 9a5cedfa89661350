"""Compact binary body encoding for the service-mode wire codec.

The transport's frames are ``4-byte big-endian length || body`` (see
:mod:`repro.net.codec`).  This module defines the *binary* body formats that
sit beside the legacy JSON body, discriminated by the body's first byte:

========  =======================================================
marker    body
========  =======================================================
``0x7b``  UTF-8 JSON object (``{`` — the legacy format)
``0x01``  tagged struct-packed encoding of one payload object
``0x02``  ``zlib``-compressed tagged encoding (bulk bodies only)
========  =======================================================

The tagged encoding is a deterministic, self-delimiting value stream built
from one tag byte plus big-endian fixed-width fields — the hot message shapes
(timestamps, key digests, batch entries) pack far tighter than their JSON
text.  The tags: ``N``/``T``/``F`` singletons, ``i`` int64, ``I`` a wider int
as a decimal string, ``f`` float64, ``s`` string, ``l`` list, ``d`` dict,
``t`` ``Timestamp`` and ``q`` a packed int64 array — a u32 count, then
``count × 8`` bytes moved by one ``tobytes``/``frombytes`` call.  The ``q``
tag carries a whole ``array('q')`` column (the per-field columns of an
operation trace, :func:`repro.net.codec.trace_to_dict`, are its user) and
decodes back to one; the JSON encoder writes the same column as a plain list,
and arrays of any other typecode are refused at encode time.

A dict is a u32 count, then ``count`` keys each followed by its value.  A
key listed in :data:`WIRE_KEYS` — the protocol's own field names — is **one
byte**, its index in that table; any other key is ``0xFF`` plus a
length-prefixed UTF-8 string.  The table is append-only (codes are wire
protocol, like the trace's kind codes), and there is one key layout: no
negotiation, no fallback.  Keys are emitted in sorted order *of the key
strings*, mirroring the JSON encoder's ``sort_keys=True``, so equal payloads
always produce identical bytes; tuples are encoded as lists, matching the
JSON round-trip.  ``Timestamp`` values get a dedicated tag instead of the
JSON tag-object, so they round-trip without the ``__repro.timestamp__``
wrapper.

Compression only replaces the uncompressed body when the packed encoding
reaches ``compress_min_bytes`` *and* ``zlib`` actually shrinks it, so small
control payloads never pay the inflate/deflate round trip.  Decompression is
bounded by :data:`MAX_FRAME_BYTES`, protecting the reader against a hostile
ratio bomb exactly like the length prefix protects it against a hostile
header.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Any, Dict, Sequence, Tuple

from repro.core.timestamps import Timestamp

__all__ = [
    "COMPRESS_MIN_BYTES",
    "CodecError",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "MARKER_BINARY",
    "MARKER_COMPRESSED",
    "MAX_FRAME_BYTES",
    "WIRE_FORMATS",
    "WIRE_KEYS",
    "normalize_wire_format",
    "pack_payload",
    "unpack_payload",
]


class CodecError(ValueError):
    """A frame or payload could not be encoded or decoded."""


#: Hard upper bound on one frame's body (compressed *or* decompressed),
#: protecting both sides against a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Default size threshold (bytes of packed body) above which a binary body is
#: considered for zlib compression.
COMPRESS_MIN_BYTES = 512

#: Wire-format names as negotiated between client and server.
FORMAT_JSON = "json"
FORMAT_BINARY = "binary"
WIRE_FORMATS: Tuple[str, ...] = (FORMAT_JSON, FORMAT_BINARY)

#: First body byte of a tagged binary body.
MARKER_BINARY = 0x01
#: First body byte of a zlib-compressed tagged binary body.
MARKER_COMPRESSED = 0x02

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
#: One tag byte and its fixed-width field, packed in one call: a count or
#: length (``s``/``I``/``l``/``d``/``q``), an int64 (``i``), a float64 (``f``).
_TAG_U32 = struct.Struct(">cI")
_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")

#: The ``q`` tag is big-endian on the wire like every other field.
_SWAP_ARRAYS = sys.byteorder == "little"

#: Dict keys that travel as one byte: a key's index in this table *is* its
#: wire code.  **Append-only and pinned** (``tests/net/test_codec.py`` spells
#: the table out): a reorder or a removal silently renames every field a peer
#: reads, so new protocol keys go at the end and nothing ever leaves.  The
#: envelope, request, result and trace field names — whatever
#: ``RemoteService`` sends and ``NodeServer.handle_request`` answers, through
#: the ``*_to_dict`` encoders of :mod:`repro.net.codec`, for the data
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
 _TAG_LIST, _TAG_DICT, _TAG_ARRAY, _TAG_TIMESTAMP) = b"NTFiIfsldqt"

_U32_AT = _U32.unpack_from
_I64_AT = _I64.unpack_from
_F64_AT = struct.Struct(">d").unpack_from


def normalize_wire_format(name: str) -> str:
    """Validate and canonicalise a wire-format name."""
    if name not in WIRE_FORMATS:
        raise CodecError(f"unknown wire format {name!r}; "
                         f"expected one of {WIRE_FORMATS}")
    return name


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
    elif isinstance(value, Timestamp):
        out += b"t"
        _encode_value(value.key, out)
        out += _I64.pack(value.value)
    elif isinstance(value, array):
        if value.typecode != "q":
            raise CodecError(f"only array('q') is wire-serialisable, "
                             f"got array({value.typecode!r})")
        if _SWAP_ARRAYS:
            value = array("q", value)
            value.byteswap()
        out += _TAG_U32.pack(b"q", len(value))
        out += value.tobytes()
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
                 compress_min_bytes: int = COMPRESS_MIN_BYTES) -> bytes:
    """Encode ``payload`` as one binary frame body (marker included).

    Bodies whose packed encoding reaches ``compress_min_bytes`` are
    zlib-compressed when that actually saves bytes; smaller bodies ship as
    the plain tagged encoding.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"frame payload must be a dict, "
                         f"got {type(payload).__name__}")
    packed = bytearray((MARKER_BINARY,))
    _encode_value(payload, packed)
    if len(packed) > compress_min_bytes:  # the marker byte is not body
        compressed = zlib.compress(memoryview(packed)[1:], 6)
        if len(compressed) < len(packed) - 1:
            return bytes((MARKER_COMPRESSED,)) + compressed
    return bytes(packed)


# ----------------------------------------------------------------- decoding
def _counted(data: bytes, pos: int, width: int) -> Tuple[int, int]:
    """Bounds of the ``count × width`` bytes behind the u32 count at ``pos``.

    Checked against the bytes actually there before anything is sliced (a
    slice would silently come back short) or allocated (a hostile count).
    """
    start = pos + 4
    end = start + _U32_AT(data, pos)[0] * width
    if end > len(data):
        raise CodecError(f"truncated binary body: wanted {end - start} bytes "
                         f"at offset {start}, have {len(data)}")
    return start, end


def _decode_str(data: bytes, pos: int) -> Tuple[str, int]:
    """The length-prefixed UTF-8 string at ``pos`` and the offset behind it."""
    start, end = _counted(data, pos, 1)
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise CodecError(f"malformed UTF-8 in binary body: {error}") from error


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    """The tagged value at ``pos`` and the offset behind it.

    Every read is bounds-checked: a tag, a key code or a fixed-width field
    past the end raises ``IndexError``/``struct.error`` (``unpack_from``
    checks the buffer itself), which :func:`unpack_payload` reports as a
    truncated body; a counted field (string, array) goes through
    :func:`_counted`.
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
    if tag == _TAG_ARRAY:
        start, end = _counted(data, pos, 8)
        column = array("q")
        column.frombytes(data[start:end])
        if _SWAP_ARRAYS:
            column.byteswap()
        return column, end
    if tag == _TAG_TIMESTAMP:
        key, pos = _decode_value(data, pos)
        return Timestamp(key=key, value=_I64_AT(data, pos)[0]), pos + 8
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


def unpack_payload(body: bytes) -> Dict[str, Any]:
    """Decode one binary frame body (``0x01`` or ``0x02`` marker) to its payload."""
    if not body:
        raise CodecError("empty frame body")
    marker = body[0]
    start = 1
    if marker == MARKER_COMPRESSED:
        decompressor = zlib.decompressobj()
        try:
            body = decompressor.decompress(memoryview(body)[1:], MAX_FRAME_BYTES)
        except zlib.error as error:
            raise CodecError(f"malformed compressed body: {error}") from error
        if decompressor.unconsumed_tail or not decompressor.eof:
            raise CodecError("compressed body exceeds the frame size limit "
                             "or is truncated")
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
