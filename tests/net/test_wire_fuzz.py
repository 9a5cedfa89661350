"""Property-based fuzzing of the frame decoder (Hypothesis).

The decoder must reassemble any stream of well-formed frames — the pieces of
one deflate stream — identically no matter how the bytes are split into
chunks, and a frame refused before it is inflated (a bad marker, an
oversized header) must raise :class:`~repro.net.codec.CodecError` without
corrupting the decoder's state for the frames that follow (a bad *stream*
frame ends the stream: see ``test_stream.py``).  An ``array`` has no tag and
is refused.  Any trace comes back as its summary, and every
single-byte mutation of a summary record is refused or round-trips.  So
does any mix of dict keys, the protocol's field names among them: it
round-trips, byte-for-byte the same whatever order the keys were inserted
in.  Every varint the decoder reads — a length, a count, an id, a record or
summary field, a counter, an int — is refused when it is not in its shortest
form, holds more than 64 bits or is cut short; a negative one is refused at
encode, before the stream moves.  A reply's records leave out the keys its request named: one decoded
without those keys, or with a different number of them, is refused like any
bad stream frame; so is a length prefix that is not the shortest form or
announces more than the frame limit, while a prefix split across ``feed()``
calls at any offset still decodes.
"""

from __future__ import annotations

import random
import struct
import sys
import zlib
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from trace_columns import Message

import repro.net.wire as wire_module

from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.net import codec, wire

# Payload values; ints kept within int64 (bigger ints are tested in
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

def _encode_stream(payloads):
    """One connection's bytes: consecutive pieces of one deflate stream."""
    stream = codec.DeflateStream()
    return b"".join(codec.encode_frame(payload, stream=stream)
                    for payload in payloads)


def _tagged(payload, keys=None) -> bytes:
    """The packed encoding of ``payload`` (answering ``keys``): its
    first-frame body, inflated."""
    body = wire.pack_payload(payload, keys=keys)
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(body[1:] + b"\x00\x00\xff\xff")


def _deflated(tagged) -> bytes:
    """The ``0x02`` body carrying ``tagged`` as a fresh stream's first frame."""
    return wire.DeflateStream().deflate(bytes(tagged))


def _header(length: int) -> bytes:
    """The shortest RFC 9000 §16 varint of ``length``: the 8-byte form
    past the 4-byte one's 2**30 - 1, which the wire never writes."""
    for size, prefix in ((1, 0), (2, 0x40), (4, 0x80), (8, 0xC0)):
        if length < 1 << (8 * size - 2):
            return ((prefix << (8 * size - 8)) | length).to_bytes(size, "big")
    raise ValueError(f"{length} does not fit a varint")


def _header_size(frame: bytes) -> int:
    """The size of ``frame``'s length prefix: its first two bits' form."""
    return 1 << (frame[0] >> 6)


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
    @given(frames=st.lists(_payloads, max_size=6),
           offsets=st.lists(st.integers(min_value=0), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_reassembles_identically(self, frames, offsets):
        stream = _encode_stream(frames)
        # A stream frame depends on the frames before it, deterministically.
        assert _encode_stream(frames) == stream
        decoder = codec.FrameDecoder()
        decoded = []
        for chunk in _split_points(stream, offsets):
            decoded.extend(decoder.feed(chunk))
        assert decoded == frames
        assert decoder.pending_bytes == 0

    @given(payload=_payloads)
    @settings(max_examples=200, deadline=None)
    def test_single_frame_round_trip(self, payload):
        assert codec.decode_frame(codec.encode_frame(payload)) == payload

    @given(key=st.text(max_size=16),
           counter=st.integers(min_value=0, max_value=2 ** 62))
    @settings(max_examples=100, deadline=None)
    def test_timestamps_survive_the_wire(self, key, counter):
        stamp = Timestamp(key=key, value=counter)
        assert codec.decode_frame(codec.encode_frame({"v": stamp})) == {"v": stamp}


# ------------------------------------------------------------------ dict keys
#: The request and reply field names: a dict of a record's shape packs as
#: that record, any other as a tagged dict.
PROTOCOL_KEYS = ("id", "ok", "result", "error", "op", "service", "key", "data",
                 "origin", "unreachable", "consistency", "max_probes", "items",
                 "keys")

_dict_keys = st.one_of(
    st.sampled_from(PROTOCOL_KEYS),
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


class TestDictKeys:
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
        body = bytearray(_tagged(payload))
        start = position % len(body)
        body[start:start + len(junk)] = junk
        try:
            wire.unpack_payload(_deflated(body))
        except codec.CodecError:
            pass

    @given(payload=_keyed_payloads, cut=st.integers(min_value=1))
    @settings(max_examples=200, deadline=None)
    def test_truncated_keyed_bodies_are_always_rejected(self, payload, cut):
        body = _tagged(payload)
        with pytest.raises(codec.CodecError):
            wire.unpack_payload(_deflated(body[:-(1 + cut % len(body))]))


class TestMalformedFrames:
    @given(junk=st.binary(min_size=1, max_size=64), payload=_payloads)
    @settings(max_examples=200, deadline=None)
    def test_bad_frame_does_not_corrupt_decoder_state(self, junk, payload):
        """A malformed body raises, then the next good frame still decodes."""
        assume(junk[0] != 0x02)  # a bad stream frame ends the stream for good
        bad_frame = codec.frame_header(len(junk)) + junk
        good_frame = codec.encode_frame(payload)
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
            decoder.feed(_header(length) + tail)

    @given(payload=_payloads,
           drop=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_truncated_stream_yields_no_phantom_frames(self, payload,
                                                       drop):
        frame = codec.encode_frame(payload)
        truncated = frame[:-min(drop, len(frame) - _header_size(frame))]
        decoder = codec.FrameDecoder()
        assert decoder.feed(truncated) == []
        assert decoder.pending_bytes == len(truncated)


# ------------------------------------------------------------------ arrays
class TestArraysAreRefused:
    """An ``array`` has no tag: it is refused at encode like any other type
    the wire cannot carry, and the retired ``q`` tag is an unknown one."""

    @given(values=st.lists(st.integers(min_value=-(2 ** 63),
                                       max_value=2 ** 63 - 1), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_int64_columns_are_refused_at_encode(self, values):
        with pytest.raises(codec.CodecError, match="not wire-serialisable"):
            codec.encode_frame({"c": array("q", values)})

    def test_a_hand_packed_array_is_an_unknown_tag(self):
        tagged = (b"d\x01" + b"\x01c" + b"q" + b"\x02"
                  + struct.pack(">qq", 7, -7))
        with pytest.raises(codec.CodecError, match="unknown binary value tag"):
            wire.unpack_payload(_deflated(tagged))

    @pytest.mark.parametrize("count", [
        3,                                  # 24 bytes wanted, 16 there
        codec.MAX_FRAME_BYTES // 8 + 1,     # count x 8 over the frame limit
        2 ** 32 - 1,                        # the largest count a header holds
    ])
    def test_a_retired_array_frame_is_refused_unallocated(self, count):
        # The self-contained ``0x01`` body that once carried ``q`` arrays: its
        # marker is refused before the array count is read, and the decoder
        # goes on with the next frame.
        body = (b"\x01" + b"d" + struct.pack(">I", 1) + b"\xff"
                + struct.pack(">I", 1) + b"c" + b"q" + struct.pack(">I", count)
                + bytes(16))
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError, match="unknown body marker"):
            decoder.feed(codec.frame_header(len(body)) + body)
        assert decoder.pending_bytes == 0
        assert decoder.feed(codec.encode_frame({"id": 1})) == [{"id": 1}]


# ------------------------------------------------------------ trace summaries
_ids = st.one_of(st.none(),
                 st.integers(min_value=0, max_value=2 ** 32),
                 st.integers(min_value=2 ** 63 - 2, max_value=2 ** 160))

_messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    size_bytes=st.integers(min_value=0, max_value=2 ** 40),
    source=_ids, dest=_ids, timed_out=st.booleans())


def _trace_of(messages, control_bytes=128):
    trace = TraceSummary(0, 0, 0, control_bytes, MessageSizes(control_bytes=control_bytes))
    for kind, size_bytes, source, dest, timed_out in messages:
        trace.record(kind, source=source, dest=dest, size_bytes=size_bytes,
                     timed_out=timed_out)
    return trace


class TestTraceRoundTrip:
    @given(messages=st.lists(_messages, max_size=30),
           control_bytes=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200, deadline=None)
    def test_any_trace_comes_back_as_its_summary(
            self, messages, control_bytes):
        """None endpoints, timed-out messages, overridden sizes, ids >= 2**63
        and the empty trace: whatever the messages, the counts survive."""
        trace = _trace_of(messages, control_bytes)
        rebuilt = codec.decode_frame(codec.encode_frame({"trace": trace}))["trace"]
        assert rebuilt == trace

    @given(messages=st.lists(_messages, min_size=1, max_size=12),
           junk=st.binary(min_size=1, max_size=24),
           position=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_corrupted_trace_frames_only_ever_raise_codec_error(
            self, messages, junk, position):
        """Overwriting bytes of a trace-bearing body decodes or raises
        ``CodecError``."""
        body = bytearray(_tagged({"trace": _trace_of(messages)}))
        start = position % len(body)
        body[start:start + len(junk)] = junk[:len(body) - start]
        try:
            wire.unpack_payload(_deflated(body))
        except codec.CodecError:
            pass

    @given(messages=st.lists(_messages, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_batched_results_share_one_rebuilt_trace(self, messages):
        trace = _trace_of(messages)
        batch = BatchInsertResult(
            results=tuple(InsertResult(key=f"k{index}", replicas_written=1,
                                       replicas_attempted=1, trace=trace)
                          for index in range(3)),
            trace=trace)
        rebuilt = codec.decode_frame(codec.encode_frame({"result": batch}))["result"]
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)
        assert rebuilt.trace == trace


# ------------------------------------------------------- summary records
#: The packed ``{"t": <summary>}`` up to the summary record's fields.
_SUMMARY_PREFIX = b"d\x01" + b"\x01t" + b"o"


def _varints(*values: int) -> bytes:
    """``values`` as unsigned LEB128 varints, spelled out."""
    out = bytearray()
    for value in values:
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def _fields(summary: TraceSummary) -> tuple:
    return (summary.message_count, summary.total_bytes, summary.timeout_count,
            summary.retry_bytes)


#: Summaries whose records hold every kind of byte: zeros, small and large
#: counts, every varint width up to the widest.
SUMMARIES = [TraceSummary(0, 0, 0, 0), TraceSummary(16, 4224, 2, 128),
             TraceSummary(2 ** 31 - 1, 2 ** 63 - 1, 2 ** 31 - 1, 2 ** 63 - 1),
             TraceSummary(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1),
             TraceSummary(700, 0x7F00FF80, 255, 0x80)]

#: A summary field: often small, so timeouts and messages tie.
_summary_field = st.one_of(st.integers(0, 8), st.integers(0, 2 ** 64 - 1))


class TestSummaryRecord:
    @pytest.mark.parametrize("summary", SUMMARIES, ids=repr)
    def test_every_single_byte_mutation_is_refused_or_round_trips(self, summary):
        body = _tagged({"t": summary})
        assert body == _SUMMARY_PREFIX + _varints(*_fields(summary))
        for offset in range(len(body)):
            for value in range(256):
                mutated = bytearray(body)
                mutated[offset] = value
                try:
                    payload = wire.unpack_payload(_deflated(mutated))
                except codec.CodecError:
                    continue
                assert _tagged(payload) == mutated

    @given(fields=st.tuples(_summary_field, _summary_field, _summary_field,
                            _summary_field))
    @settings(max_examples=300, deadline=None)
    def test_a_record_decodes_exactly_when_it_is_a_summarys(self, fields):
        body = _deflated(_SUMMARY_PREFIX + _varints(*fields))
        if fields[2] <= fields[0]:
            assert wire.unpack_payload(body) == {"t": TraceSummary(*fields)}
        else:
            with pytest.raises(codec.CodecError, match="malformed trace summary"):
                wire.unpack_payload(body)

    @given(cut=st.integers(min_value=1,
                           max_value=len(_varints(*_fields(SUMMARIES[1])))))
    @settings(max_examples=50, deadline=None)
    def test_a_truncated_record_is_refused(self, cut):
        body = _tagged({"t": SUMMARIES[1]})
        with pytest.raises(codec.CodecError, match="truncated"):
            wire.unpack_payload(_deflated(body[:-cut]))


# ------------------------------------------------------------ reply keys
#: Request keys: strings and ints of every width the wire carries.
_request_keys = st.one_of(st.text(max_size=8),
                          st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                          st.integers(min_value=2 ** 63, max_value=2 ** 160))

_SHARED = TraceSummary(5, 640, 1, 128)


def _result(kind: str, keys: list):
    """A result of ``kind`` answering a request for ``keys``."""
    def insert(index, key):
        return InsertResult(key=key, replicas_written=2, replicas_attempted=3,
                            trace=_SHARED, timestamp=Timestamp(key, index))

    def retrieve(index, key):
        return RetrieveResult(key=key, data={"n": index}, found=True,
                              is_current=bool(index % 2), replicas_inspected=1,
                              trace=_SHARED, timestamp=Timestamp(key, index),
                              latest_timestamp=Timestamp(key, index + 1))

    if kind == "insert":
        return insert(0, keys[0])
    if kind == "retrieve":
        return retrieve(0, keys[0])
    if kind == "insert_many":
        return BatchInsertResult(results=tuple(
            insert(index, key) for index, key in enumerate(keys)), trace=_SHARED)
    return BatchRetrieveResult(results=tuple(
        retrieve(index, key) for index, key in enumerate(keys)), trace=_SHARED)


@st.composite
def _replies(draw):
    """``(kind, keys)``: a point reply names one key, a batch 0–6."""
    kind = draw(st.sampled_from(["insert", "retrieve", "insert_many",
                                 "retrieve_many"]))
    size = (1, 1) if kind in ("insert", "retrieve") else (0, 6)
    return kind, draw(st.lists(_request_keys, min_size=size[0], max_size=size[1]))


def _key_bytes(key) -> int:
    """The tagged size of a key: a string, a zigzagged int64, or a wider
    int's digits, each length a varint."""
    if isinstance(key, str):
        size = len(key.encode("utf-8"))
        return 1 + len(_varints(size)) + size
    if -(2 ** 63) <= key < 2 ** 63:
        return 1 + len(_varints(key * 2 if key >= 0 else -key * 2 - 1))
    return 1 + len(_varints(len(str(key)))) + len(str(key))


def _inflated(frame: bytes) -> bytes:
    """The tagged encoding a fresh stream's first ``frame`` carries."""
    body = frame[_header_size(frame):]
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(body[1:] + b"\x00\x00\xff\xff")


def _answered(kind, keys, stream=None):
    """The reply frame answering ``keys``, its keys left out."""
    return codec.encode_frame({"id": 1, "ok": True, "result": _result(kind, keys)},
                              stream=stream, keys=keys)


class TestReplyKeys:
    @given(reply=_replies())
    @settings(max_examples=200, deadline=None)
    def test_a_reply_decodes_with_its_requests_keys_and_omits_them(self, reply):
        kind, keys = reply
        frame = _answered(kind, keys)
        # Every key is the request's own: none travels, and nothing else goes.
        spelled = codec.encode_frame({"id": 1, "ok": True,
                                      "result": _result(kind, keys)})
        assert len(_inflated(spelled)) - len(_inflated(frame)) == \
            sum(map(_key_bytes, keys))
        decoded = codec.FrameDecoder().feed(frame, keys=keys)
        assert decoded == [{"id": 1, "ok": True, "result": _result(kind, keys)}]

    @given(reply=_replies())
    @settings(max_examples=200, deadline=None)
    def test_a_flagged_record_without_keys_breaks_the_stream(self, reply):
        """Decoded without keys, a record that left its key out is refused
        -- consumed, and the stream it inflated is broken -- while the frame
        ahead of it still comes out."""
        kind, keys = reply
        if not keys:
            return  # an empty batch has no record to flag
        stream = codec.DeflateStream()
        first = codec.encode_frame({"id": 0, "op": "ping"}, stream=stream)
        flagged = _answered(kind, keys, stream)
        third = codec.encode_frame({"id": 2, "op": "ping"}, stream=stream)
        decoder = codec.FrameDecoder()
        assert decoder.feed(first + flagged + third) == [{"id": 0, "op": "ping"}]
        with pytest.raises(codec.CodecError, match="no request keys"):
            decoder.feed(b"")
        with pytest.raises(codec.CodecError, match="no resync"):
            decoder.feed(b"")
        assert decoder.pending_bytes == 0

    @given(reply=_replies(), extra=st.integers(min_value=-3, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_a_record_count_that_is_not_the_requests_is_refused(self, reply, extra):
        kind, keys = reply
        assume(extra and len(keys) + extra >= 0)
        wrong = (keys + keys[:1] * 4 + ["pad"] * 4)[:len(keys) + extra]
        # At decode: consumed, the stream broken ...
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError, match="answer a request for"):
            decoder.feed(_answered(kind, keys), keys=wrong)
        assert decoder.pending_bytes == 0
        with pytest.raises(codec.CodecError, match="no resync"):
            decoder.feed(codec.encode_frame({"id": 3}))
        # ... and at encode, before the reply touches its stream.
        stream = codec.DeflateStream()
        with pytest.raises(codec.CodecError, match="answer a request for"):
            codec.encode_frame({"id": 1, "ok": True, "result": _result(kind, keys)},
                               stream=stream, keys=wrong)
        assert codec.FrameDecoder().feed(
            codec.encode_frame({"id": 4}, stream=stream)) == [{"id": 4}]


# ------------------------------------------------------------ length prefixes
#: A prefix of each size, for a length it may hold but is not the shortest
#: form of, and the 8-byte form the wire never writes.
_NOT_MINIMAL = st.one_of(
    st.integers(min_value=0, max_value=63).map(
        lambda length: (0x4000 | length).to_bytes(2, "big")),
    st.integers(min_value=0, max_value=16383).map(
        lambda length: (0x8000_0000 | length).to_bytes(4, "big")),
    st.integers(min_value=0, max_value=2 ** 62 - 1).map(
        lambda length: ((0xC0 << 56) | length).to_bytes(8, "big")))


class TestLengthPrefix:
    @given(header=_NOT_MINIMAL, tail=st.binary(max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_a_prefix_that_is_not_the_shortest_form_is_refused(self, header, tail):
        """Refused like an oversized header: a frame ahead of it comes out,
        and the refused prefix stays at the buffer's head."""
        first = {"id": 1, "op": "ping"}
        decoder = codec.FrameDecoder()
        assert decoder.feed(codec.encode_frame(first) + header + tail) == [first]
        with pytest.raises(codec.CodecError, match="not minimal|limit"):
            decoder.feed(b"")
        assert decoder.pending_bytes == len(header) + len(tail)

    @given(length=st.integers(min_value=codec.MAX_FRAME_BYTES + 1,
                              max_value=2 ** 30 - 1))
    @settings(max_examples=50, deadline=None)
    def test_a_minimal_prefix_over_the_limit_is_refused(self, length):
        header = codec.frame_header(length)
        assert len(header) == codec.MAX_FRAME_HEADER_BYTES
        with pytest.raises(codec.CodecError, match="limit"):
            codec.FrameDecoder().feed(header)

    @pytest.mark.parametrize("pad, header_size", [(0, 1), (60, 2), (30000, 4)])
    def test_a_prefix_split_at_every_offset_still_decodes(self, pad, header_size):
        # Random bytes as hex: deflate halves them, no more.
        payloads = [{"id": 1, "pad": random.Random(pad).randbytes(pad).hex()},
                    {"id": 2, "op": "ping"}]
        stream = codec.DeflateStream()
        frames = [codec.encode_frame(payload, stream=stream) for payload in payloads]
        assert _header_size(frames[0]) == header_size
        data = b"".join(frames)
        for cut in range(header_size + 2):
            for second in range(cut, header_size + 2):
                decoder = codec.FrameDecoder()
                decoded = []
                for chunk in (data[:cut], data[cut:second], data[second:]):
                    decoded.extend(decoder.feed(chunk))
                assert decoded == payloads
                assert decoder.pending_bytes == 0


# ------------------------------------------------------------------ varints
_WIDE = "w" * 200  # a string whose length takes two varint bytes
_WIDE_TRACE = TraceSummary(200, 2 ** 40, 150, 128)


def _wide_insert(key, counter=200):
    return InsertResult(key=key, replicas_written=300, replicas_attempted=400,
                        trace=_WIDE_TRACE, timestamp=Timestamp(key, counter))


def _wide_retrieve(key, counter=200):
    return RetrieveResult(key=key, data=[None] * 130, found=True, is_current=True,
                          replicas_inspected=300, trace=_WIDE_TRACE,
                          timestamp=Timestamp(key, counter),
                          latest_timestamp=Timestamp(key, counter + 100))


_BATCH_KEYS = [f"k{index}" for index in range(130)]

#: ``(payload, keys)`` whose varints take two bytes or more, between them at
#: every place a varint sits: ids, lengths, counts, ints, counters, record
#: and summary fields.
WIDE_PAYLOADS = {
    "request": ({"id": 300, "op": "retrieve", "key": _WIDE, "service": None,
                 "origin": 500, "unreachable": list(range(1000, 1130)),
                 "consistency": "any", "max_probes": 1000}, None),
    "answer-retrieve": ({"id": 300, "ok": True,
                         "result": _wide_retrieve(_WIDE)}, (_WIDE,)),
    "answer-insert": ({"id": 300, "ok": True, "result": _wide_insert(_WIDE)}, None),
    "answer-batch-insert": ({"id": 300, "ok": True, "result": BatchInsertResult(
        results=tuple(_wide_insert(key) for key in _BATCH_KEYS),
        trace=_WIDE_TRACE)}, _BATCH_KEYS),
    "answer-batch-retrieve": ({"id": 300, "ok": True, "result": BatchRetrieveResult(
        results=tuple(_wide_retrieve(key) for key in _BATCH_KEYS[:2]) * 65,
        trace=_WIDE_TRACE)}, None),
    "error": ({"id": 300, "ok": False, "error": _WIDE}, None),
    "tagged": ({"dict": {f"{index:03d}": None for index in range(130)},
                _WIDE: Timestamp("x", 1000), "big": 10 ** 130, "int": -1000,
                "trace": _WIDE_TRACE}, None),
}

#: Where the decoder reads a varint, by the function reading it.
VARINT_READERS = {"_decode_text", "_unpack", "_decode_dict", "_decode_summary",
                  "_decode_insert", "_decode_retrieve", "_record_count",
                  "_decode_request", "_decode_answer", "_decode_error"}


def _varint_offsets(packed: bytes, keys, monkeypatch) -> dict:
    """Each offset of ``packed`` where the decoder reads a varint of two or
    more bytes, and the function reading it."""
    seen = {}
    read = wire_module._varint

    def spy(data, pos):
        if data[pos] & 0x80:
            seen[pos] = sys._getframe(1).f_code.co_name
        return read(data, pos)

    with monkeypatch.context() as patch:
        patch.setattr(wire_module, "_varint", spy)
        wire.unpack_payload(_deflated(packed), keys=keys)
    return seen


def _varint_end(packed: bytes, start: int) -> int:
    end = start
    while packed[end] & 0x80:
        end += 1
    return end + 1


class TestVarints:
    @pytest.mark.parametrize("name", WIDE_PAYLOADS)
    def test_a_bad_varint_is_refused_wherever_it_sits(self, name, monkeypatch):
        """At each varint: a longer form than the shortest, a varint of
        more than 64 bits (10 bytes with 70 bits set, or 11 bytes) and a body
        cut after its first byte are each a ``CodecError``."""
        payload, keys = WIDE_PAYLOADS[name]
        packed = _tagged(payload, keys)
        offsets = _varint_offsets(packed, keys, monkeypatch)
        assert offsets
        for start in offsets:
            end = _varint_end(packed, start)
            head, tail = packed[:start], packed[end:]
            longer = packed[start:end - 1] + bytes((packed[end - 1] | 0x80, 0))
            for varint, match in ((longer, "shortest form"),
                                  (b"\xff" * 9 + b"\x7f", "wider than 64 bits"),
                                  (b"\x80" * 10 + b"\x01", "wider than 64 bits")):
                with pytest.raises(codec.CodecError, match=match):
                    wire.unpack_payload(_deflated(head + varint + tail), keys=keys)
            with pytest.raises(codec.CodecError, match="truncated"):
                wire.unpack_payload(_deflated(packed[:start + 1]), keys=keys)

    def test_every_varint_reader_is_exercised(self, monkeypatch):
        readers = set()
        for payload, keys in WIDE_PAYLOADS.values():
            readers |= set(_varint_offsets(_tagged(payload, keys), keys,
                                           monkeypatch).values())
        assert readers == VARINT_READERS

    @pytest.mark.parametrize("length", [1, 2, 9, 10])
    def test_a_one_byte_varint_cut_or_lengthened_is_refused(self, length):
        """The one-byte form (every id below 128): a continuation bit on its
        byte with nothing behind it is a cut varint, and a tail of zero
        groups is a longer form than the shortest."""
        packed = _tagged({"id": 5, "op": "ping"})
        assert packed[4] == 5  # tag, op code, flags, consistency code, id
        with pytest.raises(codec.CodecError, match="truncated"):
            wire.unpack_payload(_deflated(packed[:4] + b"\x85"))
        longer = b"\x85" + b"\x80" * (length - 1) + b"\x00"
        with pytest.raises(codec.CodecError,
                           match="shortest form" if length < 10 else "wider"):
            wire.unpack_payload(_deflated(packed[:4] + longer))

    @pytest.mark.parametrize("bad", [
        {"id": 1, "ok": True, "result": TraceSummary(-1, 0, 0, 0)},
        {"id": 1, "ok": True, "result": TraceSummary(3, 0, 1, -128)},
        {"id": 1, "ok": True, "result": TraceSummary(0, 2 ** 64, 0, 0)},
        {"id": 1, "ok": True, "result": InsertResult(
            key="k", replicas_written=-1, replicas_attempted=1, trace=_SHARED)},
        {"id": 1, "ok": True, "result": RetrieveResult(
            key="k", data=None, found=False, is_current=False,
            replicas_inspected=-3, trace=_SHARED)},
        {"stamp": Timestamp("k", 2 ** 64)},
    ], ids=["messages", "retry", "total-past-64-bits", "written", "inspected",
            "counter-past-64-bits"])
    def test_a_negative_or_too_wide_field_is_refused_at_encode(self, bad):
        """Refused before the stream moves: the sender's next frame still
        decodes on the receiver's side."""
        stream, decoder = codec.DeflateStream(), codec.FrameDecoder()
        first = {"id": 0, "op": "ping"}
        assert decoder.feed(codec.encode_frame(first, stream=stream)) == [first]
        with pytest.raises(codec.CodecError, match="unsigned 64-bit varint"):
            codec.encode_frame(bad, stream=stream, keys=("k",))
        after = {"id": 2, "ok": True, "result": "pong"}
        assert decoder.feed(codec.encode_frame(after, stream=stream)) == [after]
