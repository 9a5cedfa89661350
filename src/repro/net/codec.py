"""Length-prefixed wire codec for the service-mode transport.

Frames are ``4-byte big-endian length || body``, and a body is the tagged
binary encoding of :mod:`repro.net.wire` behind a one-byte marker: ``0x02``
the next piece of the connection's deflate stream (every frame a connection
writes), ``0x01`` a self-contained body outside any stream.  The four
result types of :mod:`repro.api.results` travel as records, so the client
gets the result objects the simulation backend produces, and keys and data
come back as the values they were — all but the trace, which travels as its
:class:`~repro.dht.messages.TraceSummary`: the message count, byte total and
timeouts a client reads, without the per-message columns only the
simulator's cost model needs.

:func:`frame_size` *measures* the serialised size of any payload as the first
frame of a fresh stream, giving the bytes-per-op accounting the simulator's
:class:`~repro.dht.messages.MessageSizes` only models.

**Size convention**: :func:`frame_size` reports the full on-the-wire cost of
a frame — the 4-byte length prefix *plus* the body — matching what the
transport counters in :mod:`repro.net.client` accumulate.  Code that needs
the body alone subtracts ``FRAME_HEADER_BYTES``.

JSON is a view, not a protocol: :func:`describe` renders any frame as
indented JSON for humans, records in the dict forms of the ``*_to_dict``
functions.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import OperationTrace, TraceSummary
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
    "FRAME_HEADER_BYTES",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "batch_insert_result_to_dict",
    "batch_retrieve_result_to_dict",
    "decode_frame",
    "describe",
    "encode_frame",
    "frame_size",
    "insert_result_to_dict",
    "retrieve_result_to_dict",
    "trace_to_dict",
]

_HEADER = struct.Struct(">I")

#: Size of the length prefix every frame carries; :func:`frame_size`
#: includes it (the header-inclusive convention).
FRAME_HEADER_BYTES = _HEADER.size


# ------------------------------------------------------------------- framing
def encode_frame(payload: Dict[str, Any], *,
                 stream: Optional[DeflateStream] = None) -> bytes:
    """Serialise ``payload`` as one length-prefixed frame.

    The body is the next piece of ``stream``, the sending connection's
    :class:`~repro.net.wire.DeflateStream` — or, without one, the
    self-contained ``0x01`` body.
    """
    body = pack_payload(payload, stream=stream)
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> Dict[str, Any]:
    """Decode exactly one complete frame (header + body) back to its payload."""
    return _only_frame(FrameDecoder(), data)


def _only_frame(decoder: "FrameDecoder", data: bytes) -> Dict[str, Any]:
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.pending_bytes:
        raise CodecError(f"expected exactly one complete frame, decoded "
                         f"{len(frames)} with {decoder.pending_bytes} bytes left")
    return frames[0]


def frame_size(payload: Dict[str, Any]) -> int:
    """The measured wire size of ``payload``, in bytes.

    Header-inclusive by convention: the 4-byte length prefix
    (:data:`FRAME_HEADER_BYTES`) is counted, so the result is exactly the
    byte count a transport would put on the wire for this payload as a
    connection's first frame.
    """
    return len(encode_frame(payload, stream=DeflateStream()))


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, collect decoded payloads.

    The decoder owns a reassembly buffer, so frames may arrive split across
    arbitrarily many chunks (or many frames inside one chunk).  It also owns
    the receiving half of the connection's deflate stream, a raw-deflate
    inflater created at the first ``0x02`` frame: those frames must all
    arrive, in order.

    A malformed frame is consumed from the buffer *before* its
    :class:`CodecError` is raised, so the decoder stays usable for the
    ``0x01`` frames that follow it — a bad ``0x02`` frame breaks the stream,
    and every later ``0x02`` frame is refused (there is no resync).  Frames
    completed ahead of it in the same call are not lost to it: the call
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

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Append ``data`` to the buffer and return every completed payload."""
        buffer = self._buffer
        buffer += data
        frames: List[Dict[str, Any]] = []
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

    def _decode_body(self, body: bytes) -> Dict[str, Any]:
        if not body or body[0] != MARKER_COMPRESSED:
            return unpack_payload(body)
        if self._stream_error is not None:
            raise CodecError(f"binary stream broken by an earlier frame "
                             f"({self._stream_error}); there is no resync")
        if self._inflate is None:
            self._inflate = zlib.decompressobj(-zlib.MAX_WBITS)
        try:
            return unpack_payload(body, stream=self._inflate)
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
def describe(frame: bytes, decoder: Optional[FrameDecoder] = None) -> str:
    """``frame`` (header + body) as indented, key-sorted JSON, for humans.

    Trace summaries and results appear in their ``*_to_dict`` forms, timestamps as
    ``{"key": ..., "value": ...}`` and int64 columns as lists.  A mid-stream
    ``0x02`` frame needs ``decoder``, the :class:`FrameDecoder` that read
    its connection's frames before it; the decoder is fed the frame.
    """
    payload = _only_frame(FrameDecoder() if decoder is None else decoder, frame)
    return json.dumps(payload, indent=2, sort_keys=True, default=_view)


def _view(value: Any) -> Any:
    """What JSON lacks: the view of a record, a timestamp or a column."""
    to_dict = _TO_DICT.get(type(value))
    if to_dict is not None:
        return to_dict(value)
    if isinstance(value, Timestamp):
        return _stamp(value)
    if isinstance(value, array):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} has no JSON view")


def _stamp(stamp: Optional[Timestamp]) -> Optional[Dict[str, Any]]:
    return None if stamp is None else {"key": stamp.key, "value": stamp.value}


def trace_to_dict(trace: Union[OperationTrace, TraceSummary]) -> Dict[str, Any]:
    """The view of a trace: its :class:`~repro.dht.messages.TraceSummary`,
    which is all of it the wire carries."""
    summary = trace.summary()
    return {"message_count": summary.message_count,
            "total_bytes": summary.total_bytes,
            "timeout_count": summary.timeout_count,
            "retry_bytes": summary.retry_bytes}


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
