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

Dict keys are emitted in sorted order, mirroring the JSON encoder's
``sort_keys=True``, so equal payloads always produce identical bytes; tuples
are encoded as lists, matching the JSON round-trip.  ``Timestamp`` values get
a dedicated tag instead of the JSON tag-object, so they round-trip without
the ``__repro.timestamp__`` wrapper.

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
from typing import Any, Dict, List, Tuple

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
_F64 = struct.Struct(">d")

#: Bounds of the fixed-width integer tag; wider integers fall back to the
#: decimal-string tag so arbitrary Python ints survive the round trip.
_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1

#: The ``q`` tag is big-endian on the wire like every other field.
_SWAP_ARRAYS = sys.byteorder == "little"


def normalize_wire_format(name: str) -> str:
    """Validate and canonicalise a wire-format name."""
    if name not in WIRE_FORMATS:
        raise CodecError(f"unknown wire format {name!r}; "
                         f"expected one of {WIRE_FORMATS}")
    return name


# ----------------------------------------------------------------- encoding
def _encode_str(text: str, out: List[bytes]) -> None:
    raw = text.encode("utf-8")
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def _encode_value(value: Any, out: List[bytes]) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, Timestamp):
        out.append(b"t")
        _encode_value(value.key, out)
        out.append(_I64.pack(value.value))
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            out.append(b"I")
            _encode_str(str(value), out)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        out.append(b"s")
        _encode_str(value, out)
    elif isinstance(value, array):
        if value.typecode != "q":
            raise CodecError(f"only array('q') is wire-serialisable, "
                             f"got array({value.typecode!r})")
        if _SWAP_ARRAYS:
            value = array("q", value)
            value.byteswap()
        out.append(b"q")
        out.append(_U32.pack(len(value)))
        out.append(value.tobytes())
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key in sorted(value):
            if not isinstance(key, str):
                raise CodecError(f"binary payload dict keys must be strings, "
                                 f"got {type(key).__name__}")
            _encode_str(key, out)
            _encode_value(value[key], out)
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
    chunks: List[bytes] = []
    _encode_value(payload, chunks)
    packed = b"".join(chunks)
    if len(packed) >= compress_min_bytes:
        compressed = zlib.compress(packed, 6)
        if len(compressed) < len(packed):
            return bytes((MARKER_COMPRESSED,)) + compressed
    return bytes((MARKER_BINARY,)) + packed


# ----------------------------------------------------------------- decoding
class _Reader:
    """Cursor over one packed body; every read is bounds-checked."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise CodecError(f"truncated binary body: wanted {count} bytes at "
                             f"offset {self._pos}, have {len(self._data)}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def take_str(self) -> str:
        (length,) = _U32.unpack(self.take(_U32.size))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"malformed UTF-8 in binary body: {error}") from error

    def take_value(self) -> Any:
        tag = self.take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            (value,) = _I64.unpack(self.take(_I64.size))
            return value
        if tag == b"I":
            try:
                return int(self.take_str())
            except ValueError as error:
                raise CodecError(f"malformed big integer: {error}") from error
        if tag == b"f":
            (value,) = _F64.unpack(self.take(_F64.size))
            return value
        if tag == b"s":
            return self.take_str()
        if tag == b"l":
            (count,) = _U32.unpack(self.take(_U32.size))
            return [self.take_value() for _ in range(count)]
        if tag == b"d":
            (count,) = _U32.unpack(self.take(_U32.size))
            result: Dict[str, Any] = {}
            for _ in range(count):
                key = self.take_str()
                result[key] = self.take_value()
            return result
        if tag == b"q":
            (count,) = _U32.unpack(self.take(_U32.size))
            # ``take`` checks ``count * 8`` against the bytes actually left
            # before anything is allocated, so a hostile count cannot.
            column = array("q")
            column.frombytes(self.take(count * _I64.size))
            if _SWAP_ARRAYS:
                column.byteswap()
            return column
        if tag == b"t":
            key = self.take_value()
            (counter,) = _I64.unpack(self.take(_I64.size))
            return Timestamp(key=key, value=counter)
        raise CodecError(f"unknown binary value tag {tag!r} at "
                         f"offset {self._pos - 1}")


def unpack_payload(body: bytes) -> Dict[str, Any]:
    """Decode one binary frame body (``0x01`` or ``0x02`` marker) to its payload."""
    if not body:
        raise CodecError("empty frame body")
    marker = body[0]
    packed = body[1:]
    if marker == MARKER_COMPRESSED:
        decompressor = zlib.decompressobj()
        try:
            packed = decompressor.decompress(packed, MAX_FRAME_BYTES)
        except zlib.error as error:
            raise CodecError(f"malformed compressed body: {error}") from error
        if decompressor.unconsumed_tail or not decompressor.eof:
            raise CodecError("compressed body exceeds the frame size limit "
                             "or is truncated")
    elif marker != MARKER_BINARY:
        raise CodecError(f"unknown binary body marker {marker:#04x}")
    reader = _Reader(packed)
    payload = reader.take_value()
    if not reader.exhausted:
        raise CodecError("trailing bytes after the binary payload")
    if not isinstance(payload, dict):
        raise CodecError(f"frame body must decode to an object, "
                         f"got {type(payload).__name__}")
    return payload
