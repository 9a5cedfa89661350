"""Property-based fuzzing of the frame decoder (Hypothesis).

The decoder must reassemble any stream of well-formed frames — the pieces of
one deflate stream — identically no matter how the bytes are split into
chunks, and a frame refused before it is inflated (a bad marker, an
oversized header) must raise :class:`~repro.net.codec.CodecError` without
corrupting the decoder's state for the frames that follow (a bad *stream*
frame ends the stream: see ``test_stream.py``).  An ``array`` has no tag and
is refused.  Any trace comes back as its summary, and every
single-byte mutation of a summary record is refused or round-trips.  So do
the one-byte dict-key codes: any mix of table keys and escaped keys
round-trips, byte-for-byte the same whatever order the keys were inserted
in.  A reply's records leave out the keys its request named: one decoded
without those keys, or with a different number of them, is refused like any
bad stream frame; so is a length prefix that is not the shortest form or
announces more than the frame limit, while a prefix split across ``feed()``
calls at any offset still decodes.
"""

from __future__ import annotations

import random
import struct
import zlib
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from trace_columns import Message

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


def _tagged(payload) -> bytes:
    """The tagged encoding of ``payload``: its first-frame body, inflated."""
    body = wire.pack_payload(payload)
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
        tagged = (b"d" + struct.pack(">I", 1) + b"\xff" + struct.pack(">I", 1)
                  + b"c" + b"q" + struct.pack(">I", 2) + struct.pack(">qq", 7, -7))
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
_SUMMARY_PREFIX = (b"d" + struct.pack(">I", 1) + b"\xff" + struct.pack(">I", 1)
                   + b"to")
_SUMMARY = struct.Struct(">iqiq")


def _sane(fields) -> bool:
    messages, total, timeouts, retry = fields
    return min(fields) >= 0 and timeouts <= messages


#: Summaries whose records hold every kind of byte: zeros, small and large
#: counts, fields at their widths' limits.
SUMMARIES = [TraceSummary(0, 0, 0, 0), TraceSummary(16, 4224, 2, 128),
             TraceSummary(2 ** 31 - 1, 2 ** 63 - 1, 2 ** 31 - 1, 2 ** 63 - 1),
             TraceSummary(700, 0x7F00FF80, 255, 0x80)]


class TestSummaryRecord:
    @pytest.mark.parametrize("summary", SUMMARIES, ids=repr)
    def test_every_single_byte_mutation_is_refused_or_round_trips(self, summary):
        body = _tagged({"t": summary})
        assert body == _SUMMARY_PREFIX + _SUMMARY.pack(
            summary.message_count, summary.total_bytes, summary.timeout_count,
            summary.retry_bytes)
        for offset in range(len(body)):
            for value in range(256):
                mutated = bytearray(body)
                mutated[offset] = value
                try:
                    payload = wire.unpack_payload(_deflated(mutated))
                except codec.CodecError:
                    continue
                assert _tagged(payload) == mutated

    @given(fields=st.tuples(st.integers(-(2 ** 31), 2 ** 31 - 1),
                            st.integers(-(2 ** 63), 2 ** 63 - 1),
                            st.integers(-(2 ** 31), 2 ** 31 - 1),
                            st.integers(-(2 ** 63), 2 ** 63 - 1)))
    @settings(max_examples=300, deadline=None)
    def test_a_record_decodes_exactly_when_it_is_a_summarys(self, fields):
        body = _deflated(_SUMMARY_PREFIX + _SUMMARY.pack(*fields))
        if _sane(fields):
            assert wire.unpack_payload(body) == {"t": TraceSummary(*fields)}
        else:
            with pytest.raises(codec.CodecError, match="malformed trace summary"):
                wire.unpack_payload(body)

    @given(cut=st.integers(min_value=1, max_value=_SUMMARY.size))
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
    """The tagged size of a key: a string, an int64, or a wider int's digits."""
    if isinstance(key, str):
        return 5 + len(key.encode("utf-8"))
    return 9 if -(2 ** 63) <= key < 2 ** 63 else 5 + len(str(key))


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
            codec.encode_frame({"result": _result(kind, keys)}, stream=stream,
                               keys=wrong)
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
