"""Property-based fuzzing of the frame decoder (Hypothesis).

The decoder must reassemble any stream of well-formed frames — JSON bodies
and the pieces of one deflate stream freely interleaved — identically no
matter how the bytes are split into chunks, and a malformed or oversized
frame must raise :class:`~repro.net.codec.CodecError` without corrupting the
decoder's state for the frames that follow (a bad *stream* frame is the
exception: see ``test_stream.py``).  The packed-int64-array tag and the columnar
trace built on it get the same treatment: hostile counts and truncated
bodies are refused before anything is allocated, and any trace survives both
wire formats message for message.  So do the one-byte dict-key codes: any
mix of table keys and escaped keys round-trips, byte-for-byte the same
whatever order the keys were inserted in.
"""

from __future__ import annotations

import struct
import zlib
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.results import BatchInsertResult, InsertResult
from repro.core.timestamps import Timestamp
from repro.dht.messages import Message, MessageKind, MessageSizes, OperationTrace
from repro.net import codec, wire

# JSON-compatible payload values; ints kept within int64 so JSON and binary
# frames carry the same payloads (bigger ints are binary-only tested in
# test_codec.py).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=16)

_payloads = st.dictionaries(st.text(max_size=8), _values, max_size=6)

_formats = st.sampled_from(codec.WIRE_FORMATS)


def _encode_stream(frames):
    """Concatenate (payload, wire_format) pairs into one connection's bytes:
    the binary frames are consecutive pieces of one deflate stream."""
    stream = codec.DeflateStream()
    return b"".join(
        codec.encode_frame(payload, wire_format=wire_format, stream=stream)
        for payload, wire_format in frames)


def _plain_body(payload):
    """``payload``'s ``0x01`` body: its fresh-stream frame, inflated."""
    body = wire.pack_payload(payload)
    return b"\x01" + zlib.decompressobj(-zlib.MAX_WBITS).decompress(
        body[1:] + b"\x00\x00\xff\xff")


def _split_points(data, offsets):
    """Cut ``data`` into chunks at the (sorted, deduplicated) offsets."""
    cuts = sorted({offset % (len(data) + 1) for offset in offsets})
    chunks = []
    previous = 0
    for cut in cuts:
        chunks.append(data[previous:cut])
        previous = cut
    chunks.append(data[previous:])
    return chunks


class TestReassembly:
    @given(frames=st.lists(st.tuples(_payloads, _formats), max_size=6),
           offsets=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_reassembles_identically(self, frames, offsets):
        stream = _encode_stream(frames)
        # A stream frame depends on the frames before it, deterministically.
        assert _encode_stream(frames) == stream
        decoder = codec.FrameDecoder()
        decoded = []
        for chunk in _split_points(stream, offsets):
            decoded.extend(decoder.feed_with_formats(chunk))
        assert [payload for payload, _fmt in decoded] == \
            [payload for payload, _fmt in frames]
        assert [fmt for _payload, fmt in decoded] == \
            [fmt for _payload, fmt in frames]
        assert decoder.pending_bytes == 0

    @given(payload=_payloads, wire_format=_formats)
    @settings(max_examples=200, deadline=None)
    def test_single_frame_round_trip(self, payload, wire_format):
        frame = codec.encode_frame(payload, wire_format=wire_format)
        assert codec.decode_frame(frame) == payload

    @given(key=st.text(max_size=16),
           counter=st.integers(min_value=0, max_value=2 ** 62),
           wire_format=_formats)
    @settings(max_examples=100, deadline=None)
    def test_timestamps_survive_both_formats(self, key, counter, wire_format):
        stamp = Timestamp(key=key, value=counter)
        payload = {"v": codec.encode_value(stamp)}
        decoded = codec.decode_frame(
            codec.encode_frame(payload, wire_format=wire_format))
        assert codec.decode_value(decoded["v"]) == stamp


# ------------------------------------------------------------ one-byte keys
_dict_keys = st.one_of(
    st.sampled_from(wire.WIRE_KEYS),                   # travel as their code
    st.text(max_size=8),                               # escaped, "" included
    st.text(alphabet="äßπ鍵🔑", min_size=1, max_size=6),
    st.text(alphabet="k", min_size=255, max_size=300),  # longer than a byte
)

_keyed_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_dict_keys, children, max_size=5)),
    max_leaves=12)

_keyed_payloads = st.dictionaries(_dict_keys, _keyed_values, max_size=6)


def _reordered(value, rng):
    """``value`` with the insertion order of every dict in it shuffled."""
    if isinstance(value, dict):
        items = [(key, _reordered(item, rng)) for key, item in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [_reordered(item, rng) for item in value]
    return value


class TestKeyCodes:
    @given(payload=_keyed_payloads, seed=st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_any_mix_of_keys_round_trips_deterministically(self, payload, seed):
        body = wire.pack_payload(payload)
        assert wire.unpack_payload(body) == payload
        # Equal payloads are equal bytes, whatever order their keys went in.
        assert wire.pack_payload(_reordered(payload, seed)) == body

    @given(payload=_keyed_payloads, junk=st.binary(min_size=1, max_size=8),
           position=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_keyed_bodies_only_ever_raise_codec_error(
            self, payload, junk, position):
        body = bytearray(_plain_body(payload))
        start = 1 + position % len(body)
        body[start:start + len(junk)] = junk
        try:
            wire.unpack_payload(bytes(body))
        except codec.CodecError:
            pass

    @given(payload=_keyed_payloads, cut=st.integers(min_value=1))
    @settings(max_examples=200, deadline=None)
    def test_truncated_keyed_bodies_are_always_rejected(self, payload, cut):
        body = _plain_body(payload)
        with pytest.raises(codec.CodecError):
            wire.unpack_payload(body[:-(1 + cut % (len(body) - 1))])


class TestMalformedFrames:
    @given(junk=st.binary(min_size=1, max_size=64), payload=_payloads,
           wire_format=_formats)
    @settings(max_examples=200, deadline=None)
    def test_bad_frame_does_not_corrupt_decoder_state(self, junk, payload,
                                                      wire_format):
        """A malformed body raises, then the next good frame still decodes."""
        assume(junk[0] != 0x02)  # a bad stream frame ends the stream for good
        bad_frame = struct.pack(">I", len(junk)) + junk
        good_frame = codec.encode_frame(payload, wire_format=wire_format)
        decoder = codec.FrameDecoder()
        try:
            decoded = decoder.feed(bad_frame)
        except codec.CodecError:
            decoded = []
        # Whether the junk happened to parse or raised, the stream continues.
        decoded.extend(decoder.feed(good_frame))
        assert decoded[-1] == payload
        assert decoder.pending_bytes == 0

    @given(length=st.integers(min_value=codec.MAX_FRAME_BYTES + 1,
                              max_value=2 ** 32 - 1),
           tail=st.binary(max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_oversized_header_raises_and_is_not_buffered(self, length, tail):
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError, match="limit"):
            decoder.feed(struct.pack(">I", length) + tail)

    @given(payload=_payloads, wire_format=_formats,
           drop=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_truncated_stream_yields_no_phantom_frames(self, payload,
                                                       wire_format, drop):
        frame = codec.encode_frame(payload, wire_format=wire_format)
        truncated = frame[:-min(drop, len(frame) - codec.FRAME_HEADER_BYTES)]
        decoder = codec.FrameDecoder()
        assert decoder.feed(truncated) == []
        assert decoder.pending_bytes == len(truncated)


# ------------------------------------------------------ packed int64 arrays
def _binary_frame(packed_value: bytes) -> bytes:
    """A binary frame whose payload is ``{"c": <packed_value>}``."""
    body = (b"\x01" + b"d" + struct.pack(">I", 1)
            + b"\xff" + struct.pack(">I", 1) + b"c" + packed_value)
    return struct.pack(">I", len(body)) + body


class TestPackedArrays:
    @given(values=st.lists(st.integers(min_value=-(2 ** 63),
                                       max_value=2 ** 63 - 1), max_size=40),
           wire_format=_formats)
    @settings(max_examples=200, deadline=None)
    def test_int64_columns_survive_both_formats(self, values, wire_format):
        frame = codec.encode_frame({"c": array("q", values)},
                                   wire_format=wire_format)
        assert list(codec.decode_frame(frame)["c"]) == values

    def test_hand_packed_array_decodes(self):
        frame = _binary_frame(b"q" + struct.pack(">I", 2)
                              + struct.pack(">qq", 7, -7))
        assert codec.decode_frame(frame) == {"c": array("q", [7, -7])}

    @given(count=st.integers(min_value=1, max_value=64),
           missing=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_truncated_array_body_is_rejected(self, count, missing):
        frame = _binary_frame(b"q" + struct.pack(">I", count)
                              + bytes(count * 8 - missing))
        with pytest.raises(codec.CodecError, match="truncated"):
            codec.FrameDecoder().feed(frame)

    @pytest.mark.parametrize("count", [
        3,                                  # 24 bytes wanted, 16 there
        codec.MAX_FRAME_BYTES // 8 + 1,     # count x 8 over the frame limit
        2 ** 32 - 1,                        # the largest count a header holds
    ])
    def test_count_larger_than_the_body_is_rejected_unallocated(self, count):
        frame = _binary_frame(b"q" + struct.pack(">I", count) + bytes(16))
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError, match="truncated"):
            decoder.feed(frame)
        # The bad frame was consumed whole; the decoder is still usable.
        assert decoder.pending_bytes == 0
        assert decoder.feed(codec.encode_frame({"id": 1})) == [{"id": 1}]


# ---------------------------------------------------------- columnar traces
_ids = st.one_of(st.none(),
                 st.integers(min_value=0, max_value=2 ** 32),
                 st.integers(min_value=2 ** 63 - 2, max_value=2 ** 160))

_messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    size_bytes=st.integers(min_value=0, max_value=2 ** 40),
    source=_ids, dest=_ids, timed_out=st.booleans())


def _trace_of(messages, control_bytes=128):
    trace = OperationTrace(sizes=MessageSizes(control_bytes=control_bytes))
    trace.extend(messages)
    return trace


class TestTraceRoundTrip:
    @given(messages=st.lists(_messages, max_size=30),
           control_bytes=st.integers(min_value=1, max_value=4096),
           wire_format=_formats)
    @settings(max_examples=200, deadline=None)
    def test_any_trace_survives_the_wire_message_for_message(
            self, messages, control_bytes, wire_format):
        """None endpoints, timed-out retries, overridden sizes, ids >= 2**63
        and the empty trace all come back equal, through either format."""
        trace = _trace_of(messages, control_bytes)
        frame = codec.encode_frame({"trace": codec.trace_to_dict(trace)},
                                   wire_format=wire_format)
        rebuilt = codec.trace_from_dict(codec.decode_frame(frame)["trace"])
        assert rebuilt.messages == trace.messages
        assert rebuilt.sizes == trace.sizes

    @given(messages=st.lists(_messages, min_size=1, max_size=12),
           junk=st.binary(min_size=1, max_size=24),
           position=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_trace_frames_only_ever_raise_codec_error(
            self, messages, junk, position):
        """Overwriting bytes of a trace-bearing body decodes or raises
        ``CodecError`` — at the frame or in ``trace_from_dict``."""
        body = _plain_body({"trace": codec.trace_to_dict(_trace_of(messages))})
        frame = bytearray(struct.pack(">I", len(body)) + body)
        first = codec.FRAME_HEADER_BYTES + 1
        start = first + position % (len(frame) - first)
        junk = junk[:len(frame) - start]
        frame[start:start + len(junk)] = junk
        try:
            trace = codec.decode_frame(bytes(frame)).get("trace")
            if isinstance(trace, dict):
                codec.trace_from_dict(trace)
        except codec.CodecError:
            pass

    @given(messages=st.lists(_messages, max_size=20), wire_format=_formats)
    @settings(max_examples=100, deadline=None)
    def test_batched_results_share_one_rebuilt_trace(self, messages,
                                                     wire_format):
        trace = _trace_of(messages)
        batch = BatchInsertResult(
            results=tuple(InsertResult(key=f"k{index}", replicas_written=1,
                                       replicas_attempted=1, trace=trace)
                          for index in range(3)),
            trace=trace)
        frame = codec.encode_frame(
            {"result": codec.batch_insert_result_to_dict(batch)},
            wire_format=wire_format)
        rebuilt = codec.batch_insert_result_from_dict(
            codec.decode_frame(frame)["result"])
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)
        assert rebuilt.trace.messages == trace.messages
