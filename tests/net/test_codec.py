"""Tests of the length-prefixed wire codec (repro.net.codec)."""

from __future__ import annotations

import json
import struct
import zlib
from array import array

import pytest
from trace_columns import KIND_CODES

from repro.api.cluster import Cluster
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.net import codec, wire
from repro.net.client import TransportError, connect
from repro.net.server import NodeServer


def stream_frame(payload) -> bytes:
    """``payload`` as the first frame of a fresh connection stream."""
    return codec.encode_frame(payload, stream=codec.DeflateStream())


def header_size(frame: bytes) -> int:
    """The size of ``frame``'s length prefix: its first two bits' form."""
    return 1 << (frame[0] >> 6)


def varint(frame: bytes) -> int:
    """The body length ``frame``'s prefix announces (RFC 9000 §16)."""
    size = header_size(frame)
    return int.from_bytes(frame[:size], "big") & ((1 << (8 * size - 2)) - 1)


def inflated(body: bytes) -> bytes:
    """The packed payload a fresh stream's first ``0x02`` body carries."""
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(body[1:]
                                                          + b"\x00\x00\xff\xff")


def body_of(frame: bytes) -> bytes:
    """``frame`` without its length prefix."""
    return frame[header_size(frame):]


def deflated(tagged: bytes) -> bytes:
    """The ``0x02`` body carrying the tagged encoding ``tagged``, as the
    first frame of a fresh stream."""
    return wire.DeflateStream().deflate(tagged)


class TestFraming:
    def test_frame_round_trip(self):
        payload = {"id": 7, "op": "insert", "key": "k",
                   "data": {"v": [1, 2.5, None, True, False]}}
        assert codec.decode_frame(codec.encode_frame(payload)) == payload
        assert codec.decode_frame(stream_frame(payload)) == payload

    def test_frame_size_measures_a_connections_first_frame(self):
        payload = {"op": "ping"}
        assert codec.frame_size(payload) == len(stream_frame(payload))
        assert codec.frame_size(payload) > 4  # header + non-empty body

    def test_a_frame_without_a_stream_is_a_fresh_streams_first_frame(self):
        assert codec.encode_frame({"op": "ping"}) == stream_frame({"op": "ping"})
        assert body_of(stream_frame({"op": "ping"}))[0] == 0x02
        assert not hasattr(codec, "COMPRESS_MIN_BYTES")

    def test_many_frames_in_one_chunk(self):
        payloads = [{"id": index} for index in range(5)]
        chunk = b"".join(codec.encode_frame(payload) for payload in payloads)
        decoder = codec.FrameDecoder()
        assert decoder.feed(chunk) == payloads
        assert decoder.pending_bytes == 0

    def test_byte_by_byte_reassembly(self):
        payloads = [{"id": 1, "op": "ping"}, {"id": 2, "op": "info"}]
        stream = codec.DeflateStream()
        data = b"".join(codec.encode_frame(payload, stream=stream)
                        for payload in payloads)
        decoder = codec.FrameDecoder()
        decoded = []
        for index in range(len(data)):
            decoded.extend(decoder.feed(data[index:index + 1]))
        assert decoded == payloads
        assert decoder.pending_bytes == 0

    def test_pending_bytes_tracks_the_partial_frame(self):
        frame = codec.encode_frame({"id": 1})
        decoder = codec.FrameDecoder()
        assert decoder.feed(frame[:-2]) == []
        assert decoder.pending_bytes == len(frame) - 2

    def test_decode_frame_rejects_trailing_bytes(self):
        frame = codec.encode_frame({"id": 1})
        with pytest.raises(codec.CodecError, match="exactly one"):
            codec.decode_frame(frame + frame)

    def test_oversize_header_is_rejected(self):
        header = codec.frame_header(codec.MAX_FRAME_BYTES + 1)
        with pytest.raises(codec.CodecError, match="limit"):
            codec.FrameDecoder().feed(header)

    def test_oversize_payload_is_rejected_at_encode_time(self):
        with pytest.raises(codec.CodecError, match="limit"):
            codec.encode_frame({"blob": "x" * codec.MAX_FRAME_BYTES})

    def test_a_json_body_is_an_unknown_marker(self):
        body = b'{"id":1,"op":"ping"}'
        with pytest.raises(codec.CodecError, match="marker 0x7b"):
            codec.FrameDecoder().feed(codec.frame_header(len(body)) + body)

    def test_non_object_body_is_rejected(self):
        body = deflated(b"l\x00")
        with pytest.raises(codec.CodecError, match="decode to an object"):
            codec.FrameDecoder().feed(codec.frame_header(len(body)) + body)

    def test_non_serialisable_payload_is_rejected(self):
        with pytest.raises(codec.CodecError, match="not wire-serialisable"):
            codec.encode_frame({"bad": object()})

    def test_bulk_stream_frame_is_compressed(self):
        payload = {"items": [{"key": f"k{i}", "data": "v" * 32}
                             for i in range(64)]}
        frame = stream_frame(payload)
        assert codec.decode_frame(frame) == payload
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        packed = inflater.decompress(body_of(frame)[1:]
                                     + b"\x00\x00\xff\xff")
        assert len(frame) * 2 < len(packed)

    def test_header_convention_is_pinned(self):
        # The length prefix is part of every reported size.  This is the
        # convention the transport counters, the simulator's
        # frame_overhead_bytes (the largest prefix), and the bench artifacts
        # all assume.
        assert codec.MAX_FRAME_HEADER_BYTES == 4
        for frame in (codec.encode_frame({"op": "ping"}),
                      stream_frame({"op": "ping"}),
                      stream_frame({"pad": "x" * 200}),
                      stream_frame({"pad": bytes(range(256)).hex() * 40})):
            assert len(frame) == header_size(frame) + varint(frame)
            assert header_size(frame) <= codec.MAX_FRAME_HEADER_BYTES

    @pytest.mark.parametrize("length, header", [
        (0, b"\x00"), (63, b"\x3f"), (64, b"\x40\x40"), (16383, b"\x7f\xff"),
        (16384, b"\x80\x00\x40\x00"), (2 ** 24, b"\x81\x00\x00\x00"),
        (2 ** 30 - 1, b"\xbf\xff\xff\xff"),
    ])
    def test_a_length_travels_as_its_shortest_rfc9000_varint(self, length, header):
        assert codec.frame_header(length) == header
        assert varint(header) == length

    def test_timestamps_travel_natively_at_any_depth(self):
        payload = {"stamps": [Timestamp(key="a", value=1),
                              {"inner": Timestamp(key=["b", 2], value=2)}],
                   "plain": [1, "two", None, True]}
        assert codec.decode_frame(codec.encode_frame(payload)) == \
            {"stamps": [Timestamp(key="a", value=1),
                        {"inner": Timestamp(key=["b", 2], value=2)}],
             "plain": [1, "two", None, True]}

    def test_tuples_come_back_as_lists(self):
        assert codec.decode_frame(codec.encode_frame({"t": (1, (2, 3))})) == \
            {"t": [1, [2, 3]]}

    def test_big_integers_survive_the_round_trip(self):
        payload = {"big": 2 ** 200, "negative": -(2 ** 100), "small": -5}
        assert codec.decode_frame(codec.encode_frame(payload)) == payload

    @pytest.mark.parametrize("body", [
        b"\x05junk",
        b"\x01d" + struct.pack(">I", 0),  # the retired self-contained body
    ], ids=["0x05", "0x01"])
    def test_unknown_marker_is_rejected(self, body):
        with pytest.raises(codec.CodecError, match="marker"):
            codec.FrameDecoder().feed(codec.frame_header(len(body)) + body)

    def test_truncated_body_is_rejected(self):
        frame = codec.encode_frame({"id": 1, "op": "ping"})
        body = body_of(frame)[:-3]  # drop the tail of the tagged body
        with pytest.raises(codec.CodecError, match="truncated|trailing"):
            codec.FrameDecoder().feed(codec.frame_header(len(body)) + body)

    def test_corrupt_compressed_body_is_rejected(self):
        body = bytes((0x02,)) + b"not-zlib-data"
        with pytest.raises(codec.CodecError, match="compressed"):
            codec.FrameDecoder().feed(codec.frame_header(len(body)) + body)

    def test_decoder_survives_a_malformed_frame(self):
        bad_body = b"\x05junk"
        good = {"id": 2, "op": "ping"}
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError):
            decoder.feed(codec.frame_header(len(bad_body)) + bad_body
                         + codec.encode_frame(good))
        # The malformed frame was consumed; the following frame decodes.
        assert decoder.feed(b"") == [good]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("bad_body,stream_survives", [
        (b"\x05junk", True),                      # unknown body marker
        (deflated(b"d\x01"), False),              # truncated body
        (b"{]", True),                            # the old JSON marker
    ], ids=["marker", "truncated", "json"])
    def test_frames_ahead_of_a_malformed_one_are_not_lost(self, bad_body,
                                                          stream_survives):
        bad_frame = codec.frame_header(len(bad_body)) + bad_body
        first, third = {"id": 1, "op": "ping"}, {"id": 3, "op": "ping"}
        decoder = codec.FrameDecoder()
        # The intact frame comes out; the bad one waits at the buffer's head,
        assert decoder.feed(codec.encode_frame(first) + bad_frame
                            + codec.encode_frame(third)) == [first]
        assert decoder.pending_bytes > 0
        # is consumed and reported by the next call,
        with pytest.raises(codec.CodecError):
            decoder.feed(b"")
        # and the stream goes on behind a frame refused before inflating,
        # while one that inflated has broken it.
        if stream_survives:
            assert decoder.feed(b"") == [third]
        else:
            with pytest.raises(codec.CodecError, match="no resync"):
                decoder.feed(b"")
        assert decoder.pending_bytes == 0

    def test_frames_ahead_of_an_oversize_header_are_not_lost(self):
        first = {"id": 1, "op": "ping"}
        decoder = codec.FrameDecoder()
        assert decoder.feed(codec.encode_frame(first) + codec.frame_header(
            codec.MAX_FRAME_BYTES + 1)) == [first]
        with pytest.raises(codec.CodecError, match="limit"):
            decoder.feed(b"")

    @pytest.mark.parametrize("typecode", ["q", "b", "i", "L", "Q", "d"])
    def test_arrays_are_refused_at_encode(self, typecode):
        with pytest.raises(codec.CodecError, match="serialisable"):
            codec.encode_frame({"c": array(typecode, [1])})

    def test_non_string_dict_keys_are_rejected(self):
        with pytest.raises(codec.CodecError, match="keys must be strings"):
            codec.encode_frame({"outer": {1: "x"}})

    def test_mixed_type_dict_keys_are_a_codec_error_too(self):
        with pytest.raises(codec.CodecError, match="keys must be strings"):
            codec.encode_frame({"outer": {1: "x", "id": 2}})

    def test_dict_keys_travel_as_length_prefixed_strings(self):
        body = wire.pack_payload({"id": 7, "zz": None})
        assert body == deflated(b"d\x02" + b"\x02id" + b"i\x0e"
                                + b"\x02zz" + b"N")
        assert wire.unpack_payload(body) == {"id": 7, "zz": None}
        assert wire.unpack_payload(body_of(stream_frame({"id": 7, "zz": None}))) == \
            {"id": 7, "zz": None}

    @pytest.mark.parametrize("tail", [
        b"",                                          # no key at all
        b"\x80",                                      # inside the key length
        b"\x05abc",                                   # inside the key
        b"\xff\xff\xff\xff\x0f",                      # hostile key length
        b"\x01k",                                     # after the key
    ], ids=["no-key", "in-length", "in-key", "hostile-length", "after-key"])
    def test_body_truncated_at_a_dict_key_is_rejected(self, tail):
        body = deflated(b"d\x01" + tail)
        with pytest.raises(codec.CodecError, match="truncated"):
            wire.unpack_payload(body)

    def test_malformed_utf8_in_a_key_is_rejected(self):
        body = deflated(b"d\x01" + b"\x01\xfe" + b"N")
        with pytest.raises(codec.CodecError, match="UTF-8"):
            wire.unpack_payload(body)

    @pytest.mark.parametrize("key", ["id", "c", "a-key-outside-the-table"])
    def test_a_dict_in_the_1_10_layout_fails_cleanly(self, key):
        # The old layout put a u32 key length first: a new decoder reads its
        # leading 0x00 as an empty key and the next 0x00 as a value tag, which
        # is not one -- a mismatched peer is refused at its first key.
        body = deflated(b"d\x01" + struct.pack(">I", len(key)) + key.encode()
                        + b"N")
        with pytest.raises(codec.CodecError, match="unknown binary value tag"):
            wire.unpack_payload(body)


#: The kind codes as first shipped.  The trace pins digest them: this table
#: only ever grows at the end.
PINNED_KIND_CODES = {
    "lookup-hop": "h", "lookup-retry": "r", "get-request": "g",
    "get-reply": "G", "put-request": "p", "put-ack": "P",
    "timestamp-request": "t", "timestamp-reply": "T", "last-ts-request": "l",
    "last-ts-reply": "L", "counter-transfer": "c", "data-transfer": "d",
    "control": "x", "sync-summary": "s", "sync-delta": "S",
}


def sample_trace() -> TraceSummary:
    trace = TraceSummary(0, 0, 0, 64, MessageSizes(control_bytes=64, data_bytes=512))
    trace.record_route([3, 7, 9], retries=2, timeouts=1)
    trace.record(MessageKind.GET_REQUEST, source=9, dest=4)
    trace.record(MessageKind.GET_REPLY, source=4, dest=9, size_bytes=777)
    return trace


def via_wire(trace: TraceSummary) -> TraceSummary:
    return codec.decode_frame(stream_frame({"trace": trace}))["trace"]


class TestTraceEncoding:
    def test_the_trace_view_is_its_summary(self):
        view = {"message_count": 6, "total_bytes": 5 * 64 + 777,
                "timeout_count": 1, "retry_bytes": 64}
        assert codec.trace_to_dict(sample_trace()) == view

    def test_a_trace_comes_back_as_its_summary(self):
        trace = sample_trace()
        rebuilt = via_wire(trace)
        assert type(rebuilt) is TraceSummary
        assert rebuilt == trace == TraceSummary(6, 5 * 64 + 777, 1, 64)
        assert rebuilt.sizes is not trace.sizes
        assert (rebuilt.message_count, rebuilt.total_bytes, rebuilt.timeout_count) \
            == (trace.message_count, trace.total_bytes, trace.timeout_count)

    def test_empty_trace_round_trips(self):
        assert via_wire(TraceSummary(0, 0, 0, 128)) == TraceSummary(0, 0, 0, 128)

    def test_kind_code_table_is_pinned_and_complete(self):
        codes = {kind.value: code for kind, code in KIND_CODES.items()}
        # Every shipped kind keeps its code ...
        assert {value: codes[value] for value in PINNED_KIND_CODES} == \
            PINNED_KIND_CODES
        # ... every kind has one, and no two kinds share one.
        assert set(KIND_CODES) == set(MessageKind)
        assert len(set(codes.values())) == len(codes)
        assert all(len(code) == 1 for code in codes.values())
        # New kinds append: the shipped codes stay a prefix of the table.
        assert list(codes.items())[:len(PINNED_KIND_CODES)] == \
            list(PINNED_KIND_CODES.items())

    def test_every_frame_of_a_session_is_a_record(self, serve):
        """What ``NetClient``/``RemoteService`` send and ``handle_request``
        answers — the handshake, the four data operations, ``ping``,
        ``sync`` and an error reply — packs as a request, answer or error
        record, never as a tagged dict, and comes back equal."""
        seen = []

        class Recording(NodeServer):
            def handle_request(self, request):
                reply = super().handle_request(request)
                seen.append((request, reply))
                return reply

        server = serve(Recording(peers=16, replicas=4, seed=5))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                session.insert("k", {"v": 1})
                session.retrieve("k", max_probes=3)
                session.insert_many([("a", {"n": 1}), ("b", {"n": 2})])
                session.retrieve_many(["a", "missing"])
            cluster.ping()
            cluster.sync_replicas(["a"])
            with pytest.raises(TransportError, match="unknown service"):
                cluster.client.request("insert", key="k", data={},
                                       service="paxos")
        assert len(seen) == 8
        for request, reply in seen:
            keys = codec.request_keys(request)
            assert inflated(wire.pack_payload(request))[:1] == b"Q"
            assert inflated(wire.pack_payload(reply, keys=keys))[:1] == \
                (b"A" if reply["ok"] else b"E")
            assert wire.unpack_payload(wire.pack_payload(request)) == request
            assert wire.unpack_payload(wire.pack_payload(reply, keys=keys),
                                       keys=keys) == reply
        assert not seen[-1][1]["ok"]

    def test_the_clients_retries_add_up_on_a_received_summary(self):
        trace = sample_trace()
        rebuilt = via_wire(trace)
        rebuilt.record_route((), retries=2, timeouts=2)
        assert (rebuilt.message_count, rebuilt.timeout_count) == (8, 3)
        trace.record_route([], retries=2, timeouts=2)
        assert rebuilt == trace


class TestDescribe:
    def test_first_and_mid_stream_frames_render_the_dict_view(self):
        """A connection's first frame and a later one (given the decoder
        that read the frames before it) render as the ``*_to_dict`` view."""
        cluster = Cluster.build(peers=16, replicas=4, seed=5)
        with cluster.session() as session:
            results = [session.insert("k", {"v": [1, 2]}),
                       session.retrieve("k"),
                       session.insert_many([("a", 1), ("b", 2)]),
                       session.retrieve_many(["a", "missing"])]
        views = [codec.insert_result_to_dict, codec.retrieve_result_to_dict,
                 codec.batch_insert_result_to_dict,
                 codec.batch_retrieve_result_to_dict]
        stream, decoder = codec.DeflateStream(), codec.FrameDecoder()
        for index, (result, view) in enumerate(zip(results, views)):
            frame = codec.encode_frame({"id": index, "ok": True,
                                        "result": result}, stream=stream)
            expected = json.dumps({"id": index, "ok": True,
                                   "result": view(result)},
                                  indent=2, sort_keys=True)
            if index == 0:
                assert codec.describe(frame) == expected
            assert codec.describe(frame, decoder) == expected

    def test_user_values_render_as_json_too(self):
        frame = codec.encode_frame({"data": {"when": Timestamp("k", 3)}})
        assert json.loads(codec.describe(frame)) == {"data": {
            "when": {"key": "k", "value": 3}}}

    def test_a_reply_renders_with_its_requests_keys(self):
        cluster = Cluster.build(peers=16, replicas=4, seed=5)
        with cluster.session() as session:
            session.insert("k", {"v": 1})
            result = session.retrieve_many(["k", "missing"])
        reply = {"id": 3, "ok": True, "result": result}
        frame = codec.encode_frame(reply, keys=["k", "missing"])
        assert json.loads(codec.describe(frame, keys=["k", "missing"])) == \
            json.loads(codec.describe(codec.encode_frame(reply)))
        with pytest.raises(codec.CodecError, match="no request keys"):
            codec.describe(frame)

    def test_a_mid_stream_frame_needs_its_decoder(self):
        stream = codec.DeflateStream()
        codec.encode_frame({"id": 0, "op": "ping"}, stream=stream)
        second = codec.encode_frame({"id": 1, "op": "ping"}, stream=stream)
        with pytest.raises(codec.CodecError):
            codec.describe(second)
