"""Length-prefixed wire codec for the service-mode transport.

Frames are ``4-byte big-endian length || body``.  The body's first byte
discriminates its format (see :mod:`repro.net.wire` for the binary layouts):
``{`` opens the legacy compact key-sorted JSON object, ``0x02`` the next
piece of the connection's deflate stream (the only binary body written),
``0x01`` a plain tagged binary object (still read).  A JSON body is a
deterministic function of its payload; a binary one of its payload and the
frames its stream carried before — :func:`frame_size` *measures* the
serialised size of any payload as the first frame of a fresh stream, giving
the bytes-per-op accounting the simulator's
:class:`~repro.dht.messages.MessageSizes` only models.

**Size convention**: :func:`frame_size` reports the full on-the-wire cost of
a frame — the 4-byte length prefix *plus* the body — matching what the
transport counters in :mod:`repro.net.client` accumulate.  Code that needs
the body alone subtracts ``FRAME_HEADER_BYTES``.

On top of the framing, the codec defines the JSON encoding of the existing
in-process types so the client and the server exchange *exactly* the objects
the simulation backend produces (the binary format carries the same objects
as records of its own, see :mod:`repro.net.wire`):

* :class:`~repro.dht.messages.OperationTrace` as one column per message
  field (:func:`trace_to_dict`/:func:`trace_from_dict`) — a reply's trace is
  most of its bytes, so it travels as a kind-code string and integer
  columns, never as one dict per message;
* the shared result types of :mod:`repro.api.results`
  (:func:`insert_result_to_dict`, :func:`retrieve_result_to_dict`, the batch
  variants, and their inverses) — batched results rebuild the *shared* batch
  trace so the in-process invariant (all per-key results reference one trace)
  survives the wire.  :func:`encode_frame` applies the ``*_to_dict``
  encoders itself to the results and traces of a JSON payload;
* :class:`~repro.core.timestamps.Timestamp` values, tagged so they round-trip
  losslessly inside otherwise plain-JSON payloads.

Keys and data must be JSON-serialisable (strings, numbers, booleans, ``None``,
lists, dicts); tuples arrive back as lists, which is the standard JSON
round-trip caveat.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import KIND_CODES, MessageSizes, OperationTrace
from repro.net.wire import (
    FORMAT_BINARY,
    FORMAT_JSON,
    MARKER_COMPRESSED,
    MAX_FRAME_BYTES,
    WIRE_FORMATS,
    CodecError,
    DeflateStream,
    normalize_wire_format,
    pack_payload,
    trace_from_columns,
    unpack_payload,
)

__all__ = [
    "CodecError",
    "DeflateStream",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "FRAME_HEADER_BYTES",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "WIRE_FORMATS",
    "normalize_wire_format",
    "batch_insert_result_from_dict",
    "batch_insert_result_to_dict",
    "batch_retrieve_result_from_dict",
    "batch_retrieve_result_to_dict",
    "decode_frame",
    "decode_value",
    "encode_frame",
    "encode_value",
    "frame_size",
    "insert_result_from_dict",
    "insert_result_to_dict",
    "retrieve_result_from_dict",
    "retrieve_result_to_dict",
    "trace_from_dict",
    "trace_to_dict",
]

_HEADER = struct.Struct(">I")

#: Size of the length prefix every frame carries; :func:`frame_size`
#: includes it (the header-inclusive convention).
FRAME_HEADER_BYTES = _HEADER.size

#: Tag key marking an encoded :class:`Timestamp` inside a JSON payload.
_TIMESTAMP_TAG = "__repro.timestamp__"


# ------------------------------------------------------------------- framing
def encode_frame(payload: Dict[str, Any], *, wire_format: str = FORMAT_JSON,
                 stream: Optional[DeflateStream] = None) -> bytes:
    """Serialise ``payload`` as one length-prefixed frame.

    ``wire_format`` selects the body encoding: ``"json"`` (the legacy compact
    key-sorted JSON object) or ``"binary"`` (the tagged encoding of
    :mod:`repro.net.wire` as the next piece of ``stream``, the sending
    connection's :class:`~repro.net.wire.DeflateStream`; without one, the
    first frame of a fresh stream).  A JSON frame ignores ``stream``.
    """
    if normalize_wire_format(wire_format) == FORMAT_BINARY:
        body = pack_payload(payload, stream=stream)
    else:
        try:
            body = json.dumps(payload, separators=(",", ":"), sort_keys=True,
                              default=_json_default).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise CodecError(
                f"payload is not JSON-serialisable: {error}") from error
        if len(body) > MAX_FRAME_BYTES:
            raise CodecError(f"frame body of {len(body)} bytes exceeds the "
                             f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(body)) + body


def _json_default(value: Any) -> Any:
    """What JSON lacks: an ``array('q')`` column is a plain list, and a
    result or trace object its ``*_to_dict`` form."""
    if isinstance(value, array) and value.typecode == "q":
        return value.tolist()
    to_dict = _TO_DICT.get(type(value))
    if to_dict is not None:
        return to_dict(value)
    raise TypeError(f"{type(value).__name__} is not JSON-serialisable")


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Decode exactly one complete frame (header + body) back to its payload."""
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.pending_bytes:
        raise CodecError(f"expected exactly one complete frame, decoded "
                         f"{len(frames)} with {decoder.pending_bytes} bytes left")
    return frames[0]


def frame_size(payload: Dict[str, Any], *,
               wire_format: str = FORMAT_JSON) -> int:
    """The measured wire size of ``payload``, in bytes.

    Header-inclusive by convention: the 4-byte length prefix
    (:data:`FRAME_HEADER_BYTES`) is counted, so the result is exactly the
    byte count a transport would put on the wire for this payload in
    ``wire_format`` — as a connection's first binary frame.
    """
    return len(encode_frame(payload, wire_format=wire_format))


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, collect decoded payloads.

    The decoder owns a reassembly buffer, so frames may arrive split across
    arbitrarily many chunks (or many frames inside one chunk).  Each frame's
    body format is detected from its first byte, so one connection may freely
    interleave JSON and binary frames (that is how format negotiation stays a
    capability check instead of a handshake).  It also owns the receiving
    half of the connection's deflate stream, created at the first ``0x02``
    frame: those frames must all arrive, in order.

    A malformed frame is consumed from the buffer *before* its
    :class:`CodecError` is raised, so the decoder stays usable for the JSON
    and ``0x01`` frames that follow it — a bad ``0x02`` frame breaks the
    stream, and every later ``0x02`` frame is refused (there is no resync).
    Frames completed ahead of it in the same call are not lost to it: the
    call returns them and leaves the malformed frame at the head of the
    buffer, where the next call (``feed(b"")`` will do) consumes it and
    raises.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._inflate: Optional["zlib._Decompress"] = None
        self._stream_error: Optional[CodecError] = None

    @property
    def pending_bytes(self) -> int:
        """How many buffered bytes are waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Append ``data`` to the buffer and return every completed payload."""
        return [payload for payload, _format in self._drain(data)]

    def feed_with_formats(self, data: bytes) -> List[Tuple[Dict[str, Any], str]]:
        """Like :meth:`feed`, but pairs each payload with its body format.

        The format name (``"json"`` or ``"binary"``) lets a server reply in
        the same encoding the request arrived in.
        """
        return self._drain(data)

    def _drain(self, data: bytes) -> List[Tuple[Dict[str, Any], str]]:
        buffer = self._buffer
        buffer += data
        frames: List[Tuple[Dict[str, Any], str]] = []
        while len(buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer)
            if length > MAX_FRAME_BYTES:
                if frames:
                    break  # what arrived intact first; the next call raises
                raise CodecError(f"frame header announces {length} bytes, over "
                                 f"the {MAX_FRAME_BYTES}-byte limit")
            end = _HEADER.size + length
            if len(buffer) < end:
                break
            try:
                frame = self._decode_body(bytes(buffer[_HEADER.size:end]))
            except CodecError:
                if frames:
                    break  # as above: it stays put until the next call
                del buffer[:end]
                raise
            del buffer[:end]
            frames.append(frame)
        return frames

    def _decode_body(self, body: bytes) -> Tuple[Dict[str, Any], str]:
        if body and body[0] == MARKER_COMPRESSED:
            if self._stream_error is not None:
                raise CodecError(f"binary stream broken by an earlier frame "
                                 f"({self._stream_error}); there is no resync")
            if self._inflate is None:
                self._inflate = zlib.decompressobj(-zlib.MAX_WBITS)
            try:
                return unpack_payload(body, stream=self._inflate), FORMAT_BINARY
            except CodecError as error:
                self._stream_error = error
                raise
        if body and body[0] < 0x20:  # binary markers sort below printable JSON
            return unpack_payload(body), FORMAT_BINARY
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as error:
            raise CodecError(f"malformed frame body: {error}") from error
        if not isinstance(payload, dict):
            raise CodecError(f"frame body must be a JSON object, "
                             f"got {type(payload).__name__}")
        return payload, FORMAT_JSON


# ------------------------------------------------------------------- values
def encode_value(value: Any) -> Any:
    """Encode an application value, tagging :class:`Timestamp` instances.

    Containers are walked recursively; everything else must already be
    JSON-serialisable (enforced by :func:`encode_frame` at send time).
    """
    if isinstance(value, Timestamp):
        return {_TIMESTAMP_TAG: [encode_value(value.key), value.value]}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`: restore tagged :class:`Timestamp`\\ s."""
    if isinstance(value, dict):
        if set(value) == {_TIMESTAMP_TAG}:
            key, counter = value[_TIMESTAMP_TAG]
            return Timestamp(key=decode_value(key), value=counter)
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# ------------------------------------------------------------------- traces
#: The trace's own kind codes are the wire's (see :data:`KIND_CODES`).
_KIND_CODES = KIND_CODES

_Column = Union["array[int]", List[int]]


def _column(values: Sequence[int]) -> _Column:
    """A trace column as an ``array('q')``.

    Peer ids of an overlay with ``bits > 63`` do not fit int64: the column
    then travels as a plain list, whose values the bigint tag still carries.
    """
    if isinstance(values, array):
        return values
    try:
        return array("q", values)
    except OverflowError:
        return list(values)


def trace_to_dict(trace: OperationTrace) -> Dict[str, Any]:
    """Encode an :class:`OperationTrace`: its sizes and its columns, as is.

    ``kinds`` is a string of kind codes, ``size_bytes``/``sources``/``dests``
    are integer columns (``-1`` for a ``None`` endpoint; ids are never
    negative) and ``timed_out`` lists the indices of the flagged messages.
    """
    return {"sizes": {"control_bytes": trace.sizes.control_bytes,
                      "data_bytes": trace.sizes.data_bytes},
            "kinds": trace.kinds.decode("ascii"),
            "size_bytes": _column(trace.size_bytes),
            "sources": _column(trace.sources),
            "dests": _column(trace.dests),
            "timed_out": list(trace.timed_out)}


def _int_column(payload: Dict[str, Any], name: str) -> _Column:
    """Column ``name`` of a received trace: an ``array('q')`` (binary frames)
    or a JSON list, whose every element must be an ``int`` and not a ``bool``."""
    values = payload.get(name, [])
    if not (isinstance(values, array) and values.typecode == "q"
            or isinstance(values, list) and set(map(type, values)) <= {int}):
        raise CodecError(f"malformed trace columns: {name} is not a column of integers")
    return values


def trace_from_dict(payload: Dict[str, Any]) -> OperationTrace:
    """Rebuild an :class:`OperationTrace` encoded by :func:`trace_to_dict`.

    The columns are adopted, not copied into per-message objects; they go
    through :func:`repro.net.wire.trace_from_columns`, whose every failed
    check is a :class:`CodecError`.
    """
    try:
        sizes = payload.get("sizes", {})
        message_sizes = MessageSizes(
            control_bytes=sizes.get("control_bytes", 128),
            data_bytes=sizes.get("data_bytes", 1024))
        kinds = bytearray(payload.get("kinds", ""), "ascii")
    except UnicodeEncodeError as error:
        raise CodecError(f"unknown message kind code "
                         f"{error.object[error.start]!r}") from error
    except (TypeError, AttributeError) as error:
        raise CodecError(f"malformed trace columns: {error}") from error
    size_bytes, sources, dests, timed_out = (_int_column(payload, name) for name in (
        "size_bytes", "sources", "dests", "timed_out"))
    return trace_from_columns(message_sizes, kinds, size_bytes, sources, dests,
                              timed_out)


# ------------------------------------------------------------------ results
def insert_result_to_dict(result: InsertResult, *,
                          with_trace: bool = True) -> Dict[str, Any]:
    """Encode an :class:`InsertResult` (the batch encoder omits the trace)."""
    payload = {"key": encode_value(result.key),
               "replicas_written": result.replicas_written,
               "replicas_attempted": result.replicas_attempted,
               "timestamp": encode_value(result.timestamp),
               "version": result.version, "service": result.service}
    if with_trace:
        payload["trace"] = trace_to_dict(result.trace)
    return payload


def insert_result_from_dict(payload: Dict[str, Any], *,
                            trace: Optional[OperationTrace] = None) -> InsertResult:
    """Rebuild an :class:`InsertResult`; ``trace`` injects a shared batch trace."""
    if trace is None:
        trace = trace_from_dict(payload["trace"])
    return InsertResult(key=decode_value(payload["key"]),
                        replicas_written=payload["replicas_written"],
                        replicas_attempted=payload["replicas_attempted"],
                        trace=trace,
                        timestamp=decode_value(payload.get("timestamp")),
                        version=payload.get("version"),
                        service=payload.get("service"))


def retrieve_result_to_dict(result: RetrieveResult, *,
                            with_trace: bool = True) -> Dict[str, Any]:
    """Encode a :class:`RetrieveResult` (the batch encoder omits the trace)."""
    payload = {"key": encode_value(result.key), "data": encode_value(result.data),
               "found": result.found, "is_current": result.is_current,
               "replicas_inspected": result.replicas_inspected,
               "timestamp": encode_value(result.timestamp),
               "latest_timestamp": encode_value(result.latest_timestamp),
               "version": result.version, "ambiguous": result.ambiguous,
               "consistency": result.consistency, "service": result.service}
    if with_trace:
        payload["trace"] = trace_to_dict(result.trace)
    return payload


def retrieve_result_from_dict(payload: Dict[str, Any], *,
                              trace: Optional[OperationTrace] = None
                              ) -> RetrieveResult:
    """Rebuild a :class:`RetrieveResult`; ``trace`` injects a shared batch trace."""
    if trace is None:
        trace = trace_from_dict(payload["trace"])
    return RetrieveResult(key=decode_value(payload["key"]),
                          data=decode_value(payload.get("data")),
                          found=payload["found"],
                          is_current=payload["is_current"],
                          replicas_inspected=payload["replicas_inspected"],
                          trace=trace,
                          timestamp=decode_value(payload.get("timestamp")),
                          latest_timestamp=decode_value(
                              payload.get("latest_timestamp")),
                          version=payload.get("version"),
                          ambiguous=payload.get("ambiguous", False),
                          consistency=payload.get("consistency", "current"),
                          service=payload.get("service"))


def batch_insert_result_to_dict(result: BatchInsertResult) -> Dict[str, Any]:
    """Encode a :class:`BatchInsertResult`: per-key results + one shared trace."""
    return {"results": [insert_result_to_dict(item, with_trace=False)
                        for item in result.results],
            "trace": trace_to_dict(result.trace)}


def batch_insert_result_from_dict(payload: Dict[str, Any]) -> BatchInsertResult:
    """Rebuild a :class:`BatchInsertResult` around one shared trace object."""
    trace = trace_from_dict(payload["trace"])
    return BatchInsertResult(
        results=tuple(insert_result_from_dict(item, trace=trace)
                      for item in payload["results"]),
        trace=trace)


def batch_retrieve_result_to_dict(result: BatchRetrieveResult) -> Dict[str, Any]:
    """Encode a :class:`BatchRetrieveResult`: per-key results + one shared trace."""
    return {"results": [retrieve_result_to_dict(item, with_trace=False)
                        for item in result.results],
            "trace": trace_to_dict(result.trace),
            "consistency": result.consistency}


def batch_retrieve_result_from_dict(payload: Dict[str, Any]) -> BatchRetrieveResult:
    """Rebuild a :class:`BatchRetrieveResult` around one shared trace object."""
    trace = trace_from_dict(payload["trace"])
    return BatchRetrieveResult(
        results=tuple(retrieve_result_from_dict(item, trace=trace)
                      for item in payload["results"]),
        trace=trace,
        consistency=payload.get("consistency", "current"))


#: The JSON form of the objects the binary format carries as records.
_TO_DICT: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    OperationTrace: trace_to_dict,
    InsertResult: insert_result_to_dict,
    RetrieveResult: retrieve_result_to_dict,
    BatchInsertResult: batch_insert_result_to_dict,
    BatchRetrieveResult: batch_retrieve_result_to_dict,
}
