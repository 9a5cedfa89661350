"""Length-prefixed wire codec for the service-mode transport.

Frames are ``length || body``, the length an RFC 9000 §16 varint in its
shortest form: 1 byte below 64, 2 below 16 384, else 4.  A body is the packed
encoding of :mod:`repro.net.wire` behind the one-byte marker ``0x02``: the
next piece of the connection's deflate stream (every frame a connection
writes).  A request travels as a request record (op code, presence flags,
varint id, its fields), a reply as an answer or error record, any other
payload as a tagged dict, and every integer in them as a LEB128 varint.
The four result types of :mod:`repro.api.results`
travel as records, so the client gets the result objects the simulation
backend produces, and keys and data come back as the values they were —
the trace, a :class:`~repro.dht.messages.TraceSummary`, as the message
count, byte total and timeouts a client reads, without its sizes and its
message hook.  A reply leaves out the keys its request
named: both ends pass that request's :func:`request_keys`.

:func:`frame_size` *measures* the serialised size of any payload as the first
frame of a fresh stream, giving the bytes-per-op accounting the simulator's
:class:`~repro.dht.messages.MessageSizes` only models.

**Size convention**: :func:`frame_size` reports the full on-the-wire cost of
a frame — the length prefix *plus* the body — matching what the transport
counters in :mod:`repro.net.client` accumulate.

JSON is a view, not a protocol: :func:`describe` renders any frame as
indented JSON for humans, records in the dict forms of the ``*_to_dict``
functions.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import TraceSummary
from repro.net.wire import (
    MARKER_COMPRESSED,
    MAX_FRAME_BYTES,
    CodecError,
    DeflateStream,
    pack_payload,
    unpack_payload,
)

__all__ = [
    "CodecError",
    "DeflateStream",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "MAX_FRAME_HEADER_BYTES",
    "batch_insert_result_to_dict",
    "batch_retrieve_result_to_dict",
    "decode_frame",
    "describe",
    "encode_frame",
    "frame_header",
    "frame_size",
    "insert_result_to_dict",
    "request_keys",
    "retrieve_result_to_dict",
    "trace_to_dict",
]

#: The largest length prefix the wire writes (for 16 384 body bytes or more).
MAX_FRAME_HEADER_BYTES = 4


# ------------------------------------------------------------------- framing
def frame_header(length: int) -> bytes:
    """The shortest prefix of a ``length``-byte body (below 2**30): 1, 2 or
    4 bytes whose top two bits give the size."""
    size = 1 if length < 0x40 else 2 if length < 0x4000 else 4
    return ((size.bit_length() - 1) << (8 * size - 2) | length).to_bytes(size, "big")


def _body_extent(buffer: bytearray) -> Optional[Tuple[int, int]]:
    """Where the head frame's body starts and ends, once its header is whole;
    a header over the limit or not in its shortest form is refused."""
    size = 1 << (buffer[0] >> 6)
    if len(buffer) < size:
        return None
    length = int.from_bytes(buffer[:size], "big") & ((1 << (8 * size - 2)) - 1)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame header announces {length} bytes, over "
                         f"the {MAX_FRAME_BYTES}-byte limit")
    if size > 1 and length >> (4 * size - 2) == 0:
        raise CodecError(f"a {size}-byte frame length of {length} is not minimal")
    return size, size + length


def request_keys(request: Dict[str, Any]) -> Optional[Sequence[Any]]:
    """The keys a data request names, in order (``(key,)`` for a point
    operation), or ``None``.  Only lists and tuples are read: a dict's
    order is not the same at both ends."""
    op = request.get("op")
    if op == "insert" or op == "retrieve":
        return (request.get("key"),)
    if op == "retrieve_many":
        keys = request.get("keys")
        return keys if isinstance(keys, (list, tuple)) else None
    items = request.get("items")
    if op == "insert_many" and isinstance(items, (list, tuple)) and all(
            isinstance(item, (list, tuple)) and len(item) == 2 for item in items):
        return [item[0] for item in items]
    return None


def encode_frame(payload: Dict[str, Any], *,
                 stream: Optional[DeflateStream] = None,
                 keys: Optional[Sequence[Any]] = None) -> bytes:
    """Serialise ``payload`` as one length-prefixed frame.

    The body is the next piece of ``stream``, the sending connection's
    :class:`~repro.net.wire.DeflateStream` — or, without one, the first
    frame of a fresh stream; an answer's result records leave out its
    request's ``keys``.
    """
    body = pack_payload(payload, stream=stream, keys=keys)
    return frame_header(len(body)) + body


# reprolint: allow[REP008] reason=read view: the wire tests (tests/net/test_codec.py, tests/net/test_records.py) decode one frame through it
def decode_frame(data: bytes) -> Dict[str, Any]:
    """Decode exactly one complete frame (header + body) back to its payload."""
    return _only_frame(FrameDecoder(), data)


def _only_frame(decoder: "FrameDecoder", data: bytes,
                keys: Optional[Sequence[Any]] = None) -> Dict[str, Any]:
    frames = decoder.feed(data, keys=keys)
    if len(frames) != 1 or decoder.pending_bytes:
        raise CodecError(f"expected exactly one complete frame, decoded "
                         f"{len(frames)} with {decoder.pending_bytes} bytes left")
    return frames[0]


# reprolint: allow[REP008] reason=read view: tests/net/test_frame_sizes.py pins the golden frame sizes through it
def frame_size(payload: Dict[str, Any], *,
               keys: Optional[Sequence[Any]] = None) -> int:
    """The measured wire size of ``payload`` (answering ``keys``), in bytes.

    Header-inclusive by convention: the length prefix (1 to
    :data:`MAX_FRAME_HEADER_BYTES` bytes) is counted, so the result is
    exactly the byte count a transport would put on the wire for this
    payload as a connection's first frame.
    """
    return len(encode_frame(payload, keys=keys))


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, collect decoded payloads.

    The decoder owns a reassembly buffer, so frames may arrive split across
    arbitrarily many chunks (or many frames inside one chunk).  It also owns
    the receiving half of the connection's deflate stream, a raw-deflate
    inflater created at the first ``0x02`` frame: those frames must all
    arrive, in order.

    A malformed frame is consumed from the buffer *before* its
    :class:`CodecError` is raised (a refused header stays: where its frame
    ends is unknown).  One refused before inflating (an empty
    body, an unknown marker) leaves the stream as it was; a bad ``0x02``
    frame breaks it, and every later frame is refused (there is no resync).
    Frames completed ahead of it in the same call are not lost to it: the call
    returns them and leaves the malformed frame at the head of the buffer,
    where the next call (``feed(b"")`` will do) consumes it and raises.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._inflate: Optional["zlib._Decompress"] = None
        self._stream_error: Optional[CodecError] = None

    @property
    def pending_bytes(self) -> int:
        """How many buffered bytes are waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes, *,
             keys: Optional[Sequence[Any]] = None) -> List[Dict[str, Any]]:
        """Append ``data`` to the buffer and return every completed payload
        (replies to a request naming ``keys``)."""
        buffer = self._buffer
        buffer += data
        frames: List[Dict[str, Any]] = []
        while buffer:
            try:
                extent = _body_extent(buffer)
            except CodecError:
                if frames:
                    break  # what arrived intact first; the next call raises
                raise
            if extent is None or len(buffer) < extent[1]:
                break
            start, end = extent
            try:
                frame = self._decode_body(bytes(buffer[start:end]), keys)
            except CodecError:
                if frames:
                    break  # as above: it stays put until the next call
                del buffer[:end]
                raise
            del buffer[:end]
            frames.append(frame)
        return frames

    def _decode_body(self, body: bytes,
                     keys: Optional[Sequence[Any]]) -> Dict[str, Any]:
        if not body or body[0] != MARKER_COMPRESSED:
            return unpack_payload(body)  # refuses it, the stream untouched
        if self._stream_error is not None:
            raise CodecError(f"binary stream broken by an earlier frame "
                             f"({self._stream_error}); there is no resync")
        if self._inflate is None:
            self._inflate = zlib.decompressobj(-zlib.MAX_WBITS)
        try:
            return unpack_payload(body, stream=self._inflate, keys=keys)
        except CodecError as error:
            self._stream_error = error
            raise


# Names the benchmark's layer recorder (``bench/layers.py``) still wraps by
# attribute; nothing calls them, and they go when that list is updated.
def _retired(*_args: Any, **_kwargs: Any) -> Any:
    raise NotImplementedError("the JSON wire format is retired")


trace_from_dict = insert_result_from_dict = retrieve_result_from_dict = _retired
batch_insert_result_from_dict = batch_retrieve_result_from_dict = _retired
FrameDecoder.feed_with_formats = _retired  # type: ignore[attr-defined]


# ---------------------------------------------------------------- the view
def describe(frame: bytes, decoder: Optional[FrameDecoder] = None, *,
             keys: Optional[Sequence[Any]] = None) -> str:
    """``frame`` (header + body) as indented, key-sorted JSON, for humans.

    Trace summaries and results appear in their ``*_to_dict`` forms and
    timestamps as ``{"key": ..., "value": ...}``.  A mid-stream
    ``0x02`` frame needs ``decoder``, the :class:`FrameDecoder` that read
    its connection's frames before it; the decoder is fed the frame.  A
    reply needs the ``keys`` its request named.
    """
    payload = _only_frame(FrameDecoder() if decoder is None else decoder,
                          frame, keys)
    return json.dumps(payload, indent=2, sort_keys=True, default=_view)


def _view(value: Any) -> Any:
    """What JSON lacks: the view of a record or a timestamp."""
    to_dict = _TO_DICT.get(type(value))
    if to_dict is not None:
        return to_dict(value)
    if isinstance(value, Timestamp):
        return _stamp(value)
    raise TypeError(f"{type(value).__name__} has no JSON view")


def _stamp(stamp: Optional[Timestamp]) -> Optional[Dict[str, Any]]:
    return None if stamp is None else {"key": stamp.key, "value": stamp.value}


def trace_to_dict(trace: TraceSummary) -> Dict[str, Any]:
    """The view of a :class:`~repro.dht.messages.TraceSummary`: its four
    counts, which are all of it the wire carries."""
    return {"message_count": trace.message_count,
            "total_bytes": trace.total_bytes,
            "timeout_count": trace.timeout_count,
            "retry_bytes": trace.retry_bytes}


def insert_result_to_dict(result: InsertResult, *,
                          with_trace: bool = True) -> Dict[str, Any]:
    """The view of an :class:`InsertResult` (a batch's omits the trace)."""
    payload = {"key": result.key,
               "replicas_written": result.replicas_written,
               "replicas_attempted": result.replicas_attempted,
               "timestamp": _stamp(result.timestamp),
               "version": result.version, "service": result.service}
    if with_trace:
        payload["trace"] = trace_to_dict(result.trace)
    return payload


def retrieve_result_to_dict(result: RetrieveResult, *,
                            with_trace: bool = True) -> Dict[str, Any]:
    """The view of a :class:`RetrieveResult` (a batch's omits the trace)."""
    payload = {"key": result.key, "data": result.data,
               "found": result.found, "is_current": result.is_current,
               "replicas_inspected": result.replicas_inspected,
               "timestamp": _stamp(result.timestamp),
               "latest_timestamp": _stamp(result.latest_timestamp),
               "version": result.version, "ambiguous": result.ambiguous,
               "consistency": result.consistency, "service": result.service}
    if with_trace:
        payload["trace"] = trace_to_dict(result.trace)
    return payload


def batch_insert_result_to_dict(result: BatchInsertResult) -> Dict[str, Any]:
    """The view of a :class:`BatchInsertResult`: per-key results + one trace."""
    return {"results": [insert_result_to_dict(item, with_trace=False)
                        for item in result.results],
            "trace": trace_to_dict(result.trace)}


def batch_retrieve_result_to_dict(result: BatchRetrieveResult) -> Dict[str, Any]:
    """The view of a :class:`BatchRetrieveResult`: per-key results + one trace."""
    return {"results": [retrieve_result_to_dict(item, with_trace=False)
                        for item in result.results],
            "trace": trace_to_dict(result.trace),
            "consistency": result.consistency}


#: The view of each object the wire carries as a record.
_TO_DICT: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    TraceSummary: trace_to_dict,
    InsertResult: insert_result_to_dict,
    RetrieveResult: retrieve_result_to_dict,
    BatchInsertResult: batch_insert_result_to_dict,
    BatchRetrieveResult: batch_retrieve_result_to_dict,
}
