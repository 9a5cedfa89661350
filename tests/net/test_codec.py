"""Tests of the length-prefixed wire codec (repro.net.codec)."""

from __future__ import annotations

import json
import struct
import zlib
from array import array

import pytest

from repro.api.cluster import Cluster
from repro.core.timestamps import Timestamp
from repro.dht.messages import Message, MessageKind, MessageSizes, OperationTrace
from repro.net import codec, wire
from repro.net.client import TransportError, connect
from repro.net.server import NodeServer


def packed_body(body: bytes) -> bytes:
    """The tagged bytes a fresh-stream ``0x02`` body carries, inflated."""
    assert body[0] == 0x02
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(
        body[1:] + b"\x00\x00\xff\xff")


class TestFraming:
    def test_frame_round_trip(self):
        payload = {"id": 7, "op": "insert", "key": "k", "data": {"v": [1, 2]}}
        assert codec.decode_frame(codec.encode_frame(payload)) == payload

    def test_frame_size_measures_header_plus_body(self):
        payload = {"op": "ping"}
        frame = codec.encode_frame(payload)
        assert codec.frame_size(payload) == len(frame)
        assert codec.frame_size(payload) > 4  # header + non-empty body

    def test_many_frames_in_one_chunk(self):
        payloads = [{"id": index} for index in range(5)]
        chunk = b"".join(codec.encode_frame(payload) for payload in payloads)
        decoder = codec.FrameDecoder()
        assert decoder.feed(chunk) == payloads
        assert decoder.pending_bytes == 0

    def test_byte_by_byte_reassembly(self):
        payloads = [{"id": 1, "op": "ping"}, {"id": 2, "op": "info"}]
        stream = b"".join(codec.encode_frame(payload) for payload in payloads)
        decoder = codec.FrameDecoder()
        decoded = []
        for index in range(len(stream)):
            decoded.extend(decoder.feed(stream[index:index + 1]))
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
        header = struct.pack(">I", codec.MAX_FRAME_BYTES + 1)
        with pytest.raises(codec.CodecError, match="limit"):
            codec.FrameDecoder().feed(header)

    def test_oversize_payload_is_rejected_at_encode_time(self):
        with pytest.raises(codec.CodecError, match="limit"):
            codec.encode_frame({"blob": "x" * codec.MAX_FRAME_BYTES})

    def test_malformed_body_is_rejected(self):
        body = b"{not json"
        with pytest.raises(codec.CodecError, match="malformed"):
            codec.FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_non_object_body_is_rejected(self):
        body = b"[1,2,3]"
        with pytest.raises(codec.CodecError, match="JSON object"):
            codec.FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_non_serialisable_payload_is_rejected(self):
        with pytest.raises(codec.CodecError, match="not JSON-serialisable"):
            codec.encode_frame({"bad": object()})


class TestBinaryFraming:
    def test_binary_round_trip(self):
        payload = {"id": 7, "op": "insert", "key": "k",
                   "data": {"v": [1, 2.5, None, True, False]}}
        frame = codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY)
        assert codec.decode_frame(frame) == payload

    def test_every_binary_body_is_a_stream_frame(self):
        # No size threshold: a ping is a piece of the deflate stream too.
        frame = codec.encode_frame({"op": "ping"},
                                   wire_format=codec.FORMAT_BINARY)
        assert frame[codec.FRAME_HEADER_BYTES] == 0x02
        assert not hasattr(codec, "COMPRESS_MIN_BYTES")

    def test_bulk_binary_body_is_compressed(self):
        payload = {"items": [{"key": f"k{i}", "data": "v" * 32}
                             for i in range(64)]}
        frame = codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY)
        assert frame[codec.FRAME_HEADER_BYTES] == 0x02
        assert codec.decode_frame(frame) == payload
        # ...and beats the JSON encoding by a wide margin on bulk shapes.
        assert len(frame) * 2 < codec.frame_size(payload)

    def test_header_convention_is_pinned(self):
        # The 4-byte length prefix is part of every reported size.  This is
        # the convention the transport counters, the simulator's
        # frame_overhead_bytes, and the bench artifacts all assume.
        assert codec.FRAME_HEADER_BYTES == 4
        for wire_format in codec.WIRE_FORMATS:
            payload = {"op": "ping"}
            frame = codec.encode_frame(payload, wire_format=wire_format)
            body_len = struct.unpack(">I", frame[:4])[0]
            assert len(frame) == codec.FRAME_HEADER_BYTES + body_len
            assert codec.frame_size(payload, wire_format=wire_format) == \
                len(frame)

    def test_timestamp_gets_a_native_binary_tag(self):
        payload = {"stamp": Timestamp(key="k", value=9)}
        frame = codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY)
        decoded = codec.decode_frame(frame)
        assert decoded["stamp"] == Timestamp(key="k", value=9)

    def test_big_integers_survive_the_round_trip(self):
        payload = {"big": 2 ** 200, "negative": -(2 ** 100), "small": -5}
        frame = codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY)
        assert codec.decode_frame(frame) == payload

    def test_mixed_formats_interleave_on_one_decoder(self):
        payloads = [{"id": 1}, {"id": 2}, {"id": 3}]
        stream = (codec.encode_frame(payloads[0])
                  + codec.encode_frame(payloads[1],
                                       wire_format=codec.FORMAT_BINARY)
                  + codec.encode_frame(payloads[2]))
        decoder = codec.FrameDecoder()
        decoded = decoder.feed_with_formats(stream)
        assert [payload for payload, _fmt in decoded] == payloads
        assert [fmt for _payload, fmt in decoded] == \
            [codec.FORMAT_JSON, codec.FORMAT_BINARY, codec.FORMAT_JSON]

    def test_unknown_marker_is_rejected(self):
        body = b"\x05junk"
        with pytest.raises(codec.CodecError, match="marker"):
            codec.FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_truncated_binary_body_is_rejected(self):
        frame = codec.encode_frame({"id": 1, "op": "ping"},
                                   wire_format=codec.FORMAT_BINARY)
        body = frame[4:-3]  # drop the tail of the packed body
        with pytest.raises(codec.CodecError, match="truncated|trailing"):
            codec.FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_corrupt_compressed_body_is_rejected(self):
        body = bytes((0x02,)) + b"not-zlib-data"
        with pytest.raises(codec.CodecError, match="compressed"):
            codec.FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_decoder_survives_a_malformed_frame(self):
        bad_body = b"\x05junk"
        good = {"id": 2, "op": "ping"}
        decoder = codec.FrameDecoder()
        with pytest.raises(codec.CodecError):
            decoder.feed(struct.pack(">I", len(bad_body)) + bad_body
                         + codec.encode_frame(good))
        # The malformed frame was consumed; the following frame decodes.
        assert decoder.feed(b"") == [good]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("bad_frame", [
        struct.pack(">I", 5) + b"\x05junk",              # unknown body marker
        struct.pack(">I", 3) + b"\x01d\x00",             # truncated binary body
        struct.pack(">I", 2) + b"{]",                     # malformed JSON
    ], ids=["marker", "truncated", "json"])
    def test_frames_ahead_of_a_malformed_one_are_not_lost(self, bad_frame):
        first, third = {"id": 1, "op": "ping"}, {"id": 3, "op": "ping"}
        decoder = codec.FrameDecoder()
        # The intact frame comes out; the bad one waits at the buffer's head,
        assert decoder.feed(codec.encode_frame(first) + bad_frame
                            + codec.encode_frame(third)) == [first]
        assert decoder.pending_bytes > 0
        # is consumed and reported by the next call,
        with pytest.raises(codec.CodecError):
            decoder.feed(b"")
        # and the stream goes on behind it.
        assert decoder.feed(b"") == [third]
        assert decoder.pending_bytes == 0

    def test_frames_ahead_of_an_oversize_header_are_not_lost(self):
        first = {"id": 1, "op": "ping"}
        decoder = codec.FrameDecoder()
        assert decoder.feed(codec.encode_frame(first) + struct.pack(
            ">I", codec.MAX_FRAME_BYTES + 1)) == [first]
        with pytest.raises(codec.CodecError, match="limit"):
            decoder.feed(b"")

    def test_int64_arrays_round_trip_packed_and_as_json_lists(self):
        column = array("q", [0, -1, 2 ** 63 - 1, -(2 ** 63), 1234567890123])
        payload = {"column": column, "empty": array("q")}
        binary = codec.decode_frame(
            codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY))
        assert binary == payload
        assert isinstance(binary["column"], array)
        assert binary["column"].typecode == "q"
        # JSON has no packed arrays: the same column is a plain list there.
        assert codec.decode_frame(codec.encode_frame(payload)) == \
            {"column": column.tolist(), "empty": []}

    def test_int64_array_is_big_endian_on_the_wire(self):
        frame = codec.encode_frame({"c": array("q", [1, -2])},
                                   wire_format=codec.FORMAT_BINARY)
        assert packed_body(frame[4:]).endswith(
            b"q" + struct.pack(">I", 2) + struct.pack(">qq", 1, -2))

    def test_encoding_an_array_leaves_the_callers_array_untouched(self):
        column = array("q", [1, 2, 3])
        codec.encode_frame({"c": column}, wire_format=codec.FORMAT_BINARY)
        assert column == array("q", [1, 2, 3])

    @pytest.mark.parametrize("typecode", ["b", "i", "L", "Q", "d"])
    def test_arrays_of_other_typecodes_are_refused_at_encode(self, typecode):
        for wire_format in codec.WIRE_FORMATS:
            with pytest.raises(codec.CodecError, match="serialisable"):
                codec.encode_frame({"c": array(typecode, [1])},
                                   wire_format=wire_format)

    def test_non_string_dict_keys_are_rejected(self):
        with pytest.raises(codec.CodecError, match="keys must be strings"):
            codec.encode_frame({"outer": {1: "x"}},
                               wire_format=codec.FORMAT_BINARY)

    def test_mixed_type_dict_keys_are_a_codec_error_too(self):
        with pytest.raises(codec.CodecError, match="keys must be strings"):
            codec.encode_frame({"outer": {1: "x", "id": 2}},
                               wire_format=codec.FORMAT_BINARY)

    def test_table_keys_travel_as_one_byte_and_others_escaped(self):
        body = wire.pack_payload({"id": 7, "zz": None})
        assert packed_body(body) == (
            b"d" + struct.pack(">I", 2)
            + bytes((wire.WIRE_KEYS.index("id"),)) + b"i" + struct.pack(">q", 7)
            + b"\xff" + struct.pack(">I", 2) + b"zz" + b"N")
        assert wire.unpack_payload(body) == {"id": 7, "zz": None}
        assert wire.unpack_payload(b"\x01" + packed_body(body)) == \
            {"id": 7, "zz": None}

    @pytest.mark.parametrize("code", [len(wire.WIRE_KEYS), 0x80, 0xFE])
    def test_key_code_outside_the_table_is_rejected(self, code):
        body = b"\x01d" + struct.pack(">I", 1) + bytes((code,)) + b"N"
        with pytest.raises(codec.CodecError, match="key code"):
            wire.unpack_payload(body)

    @pytest.mark.parametrize("tail", [
        b"",                                          # no key at all
        b"\x00",                                      # right after a key code
        b"\xff",                                      # right after the escape
        b"\xff\x00\x00",                              # inside the key length
        b"\xff" + struct.pack(">I", 5) + b"abc",      # inside the raw key
        b"\xff" + struct.pack(">I", 2 ** 32 - 1),     # hostile key length
    ], ids=["no-key", "after-code", "after-escape", "in-length", "in-key",
            "hostile-length"])
    def test_body_truncated_at_a_dict_key_is_rejected(self, tail):
        body = b"\x01d" + struct.pack(">I", 1) + tail
        with pytest.raises(codec.CodecError, match="truncated"):
            wire.unpack_payload(body)

    def test_malformed_utf8_in_a_raw_key_is_rejected(self):
        body = (b"\x01d" + struct.pack(">I", 1)
                + b"\xff" + struct.pack(">I", 1) + b"\xfe" + b"N")
        with pytest.raises(codec.CodecError, match="UTF-8"):
            wire.unpack_payload(body)

    @pytest.mark.parametrize("key", ["id", "c", "a-key-outside-the-table"])
    def test_a_dict_in_the_1_10_layout_fails_cleanly(self, key):
        # The old layout put a u32 key length first: a new decoder reads its
        # leading 0x00 as key code 0 and the next 0x00 as a value tag, which
        # is not one -- a mismatched peer is refused at its first key.
        body = (b"\x01d" + struct.pack(">I", 1)
                + struct.pack(">I", len(key)) + key.encode() + b"N")
        with pytest.raises(codec.CodecError, match="unknown binary value tag"):
            wire.unpack_payload(body)

    def test_normalize_wire_format_rejects_unknown_names(self):
        assert codec.normalize_wire_format("binary") == "binary"
        with pytest.raises(codec.CodecError, match="unknown wire format"):
            codec.normalize_wire_format("msgpack")


class TestValueEncoding:
    def test_timestamp_round_trip(self):
        stamp = Timestamp(key="k", value=42)
        assert codec.decode_value(codec.encode_value(stamp)) == stamp

    def test_timestamps_nested_in_containers(self):
        value = {"stamps": [Timestamp(key="a", value=1),
                            {"inner": Timestamp(key="b", value=2)}],
                 "plain": [1, "two", None, True]}
        decoded = codec.decode_value(codec.encode_value(value))
        assert decoded["stamps"][0] == Timestamp(key="a", value=1)
        assert decoded["stamps"][1]["inner"] == Timestamp(key="b", value=2)
        assert decoded["plain"] == [1, "two", None, True]

    def test_tuples_come_back_as_lists(self):
        assert codec.decode_value(codec.encode_value((1, 2))) == [1, 2]


#: The kind codes as first shipped.  They are wire protocol: this table only
#: ever grows at the end.
PINNED_KIND_CODES = {
    "lookup-hop": "h", "lookup-retry": "r", "get-request": "g",
    "get-reply": "G", "put-request": "p", "put-ack": "P",
    "timestamp-request": "t", "timestamp-reply": "T", "last-ts-request": "l",
    "last-ts-reply": "L", "counter-transfer": "c", "data-transfer": "d",
    "control": "x", "sync-summary": "s", "sync-delta": "S",
}


#: The one-byte dict-key codes as first shipped (1.11.0), in code order.
PINNED_WIRE_KEYS = (
    "id", "ok", "result", "error", "op",
    "service", "key", "data", "origin", "unreachable", "consistency",
    "max_probes", "items", "keys",
    "replicas_written", "replicas_attempted", "timestamp", "version", "found",
    "is_current", "replicas_inspected", "latest_timestamp", "ambiguous",
    "results", "trace",
    "sizes", "control_bytes", "data_bytes", "kinds", "size_bytes", "sources",
    "dests", "timed_out",
    "__repro.timestamp__",
)

#: Request/result fields whose *values* are the application's, not protocol.
_USER_FIELDS = frozenset({"key", "data", "items", "keys"})


def _protocol_keys(payload: dict) -> set:
    """Every dict key of ``payload`` outside the application's own values."""
    keys = set(payload)
    for key, value in payload.items():
        if key not in _USER_FIELDS:
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, dict):
                    keys |= _protocol_keys(item)
    return keys


def sample_trace() -> OperationTrace:
    trace = OperationTrace(sizes=MessageSizes(control_bytes=64,
                                              data_bytes=512))
    trace.record_route([3, 7, 9], retries=2, timeouts=1)
    trace.record(MessageKind.GET_REQUEST, source=9, dest=4)
    trace.record(MessageKind.GET_REPLY, source=4, dest=9, size_bytes=777)
    return trace


class TestTraceEncoding:
    def test_trace_travels_as_one_column_per_field(self):
        encoded = codec.trace_to_dict(sample_trace())
        assert encoded == {
            "sizes": {"control_bytes": 64, "data_bytes": 512},
            "kinds": "hhrrgG",
            "size_bytes": array("q", [64, 64, 64, 64, 64, 777]),
            "sources": array("q", [3, 7, -1, -1, 9, 4]),
            "dests": array("q", [7, 9, -1, -1, 4, 9]),
            "timed_out": [2]}

    @pytest.mark.parametrize("wire_format", codec.WIRE_FORMATS)
    def test_trace_round_trip_is_message_for_message(self, wire_format):
        trace = sample_trace()
        frame = codec.encode_frame({"trace": codec.trace_to_dict(trace)},
                                   wire_format=wire_format)
        rebuilt = codec.trace_from_dict(codec.decode_frame(frame)["trace"])
        assert rebuilt.messages == trace.messages
        assert rebuilt.sizes == trace.sizes
        assert rebuilt.timeout_count == 1
        assert rebuilt.total_bytes == trace.total_bytes

    @pytest.mark.parametrize("wire_format", codec.WIRE_FORMATS)
    def test_ids_beyond_int64_fall_back_to_a_plain_list(self, wire_format):
        trace = OperationTrace()
        trace.record(MessageKind.LOOKUP_HOP, source=2 ** 63, dest=2 ** 159 + 1)
        trace.record(MessageKind.LOOKUP_HOP, source=5, dest=None)
        encoded = codec.trace_to_dict(trace)
        assert encoded["sources"] == [2 ** 63, 5]
        assert encoded["dests"] == [2 ** 159 + 1, -1]
        assert isinstance(encoded["size_bytes"], array)
        frame = codec.encode_frame({"trace": encoded}, wire_format=wire_format)
        rebuilt = codec.trace_from_dict(codec.decode_frame(frame)["trace"])
        assert rebuilt.messages == trace.messages

    def test_empty_trace_round_trips(self):
        rebuilt = codec.trace_from_dict(codec.trace_to_dict(OperationTrace()))
        assert rebuilt.messages == ()

    def test_kind_code_table_is_pinned_and_complete(self):
        codes = {kind.value: code for kind, code in codec._KIND_CODES.items()}
        # Every shipped kind keeps its code ...
        assert {value: codes[value] for value in PINNED_KIND_CODES} == \
            PINNED_KIND_CODES
        # ... every kind has one, and no two kinds share one.
        assert set(codec._KIND_CODES) == set(MessageKind)
        assert len(set(codes.values())) == len(codes)
        assert all(len(code) == 1 for code in codes.values())
        # New kinds append: the shipped codes stay a prefix of the table.
        assert list(codes.items())[:len(PINNED_KIND_CODES)] == \
            list(PINNED_KIND_CODES.items())

    def test_wire_key_table_is_pinned_and_append_only(self):
        # A key's index is its wire code: a reorder or a removal renames
        # every field a peer reads, so the shipped table stays a prefix.
        assert wire.WIRE_KEYS[:len(PINNED_WIRE_KEYS)] == PINNED_WIRE_KEYS
        assert len(set(wire.WIRE_KEYS)) == len(wire.WIRE_KEYS)
        assert len(wire.WIRE_KEYS) <= 0xFF  # 0xFF escapes to a raw key
        assert all(isinstance(key, str) for key in wire.WIRE_KEYS)

    def test_every_protocol_key_on_the_data_path_has_a_code(self, serve):
        """What ``NetClient``/``RemoteService`` send and ``handle_request``
        answers, for the four data operations, ``ping`` and an error reply —
        replies in their dict form, the ``*_to_dict`` encoders' (a binary
        frame carries the result objects as records instead).  ``info`` and
        ``sync`` replies are free-form reports sent once and stay spelled
        out."""
        seen = []

        class Recording(NodeServer):
            def handle_request(self, request):
                reply = super().handle_request(request)
                if request.get("op") not in ("info", "sync"):
                    spelled_out = json.loads(codec.encode_frame(reply)[4:])
                    seen.extend((request, spelled_out))
                return reply

        server = serve(Recording(peers=16, replicas=4, seed=5))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                session.insert("k", {"v": 1})
                session.retrieve("k", max_probes=3)
                session.insert_many([("a", {"n": 1}), ("b", {"n": 2})])
                session.retrieve_many(["a", "missing"])
            cluster.ping()
            with pytest.raises(TransportError, match="unknown service"):
                cluster.client.request("insert", key="k", data={},
                                       service="paxos")
        assert len(seen) == 12
        emitted = set().union(*map(_protocol_keys, seen))
        assert emitted - set(wire.WIRE_KEYS) == set()
        # ... and the table carries nothing the protocol does not use.
        assert set(wire.WIRE_KEYS) - emitted == set()

    def test_unknown_kind_code_is_a_codec_error(self):
        encoded = codec.trace_to_dict(sample_trace())
        encoded["kinds"] = "hhrr?G"
        with pytest.raises(codec.CodecError, match="unknown message kind"):
            codec.trace_from_dict(encoded)

    @pytest.mark.parametrize("column", ["size_bytes", "sources", "dests"])
    def test_columns_of_unequal_length_are_a_codec_error(self, column):
        encoded = codec.trace_to_dict(sample_trace())
        encoded[column] = encoded[column][:-1]
        with pytest.raises(codec.CodecError, match="differ in length"):
            codec.trace_from_dict(encoded)
        encoded = codec.trace_to_dict(sample_trace())
        encoded["kinds"] += "h"
        with pytest.raises(codec.CodecError, match="differ in length"):
            codec.trace_from_dict(encoded)

    @pytest.mark.parametrize("index", [-1, 6, 2 ** 40])
    def test_timed_out_index_out_of_range_is_a_codec_error(self, index):
        encoded = codec.trace_to_dict(sample_trace())
        encoded["timed_out"] = [2, index]
        with pytest.raises(codec.CodecError, match="timed_out index"):
            codec.trace_from_dict(encoded)

    @pytest.mark.parametrize("patch", [
        {"sources": ["a", "b", "c", "d", "e", "f"]},
        {"size_bytes": None},
        {"timed_out": ["x"]},
        {"kinds": [["h"]] * 6},
        {"sizes": 5},
    ])
    def test_non_integer_columns_are_a_codec_error(self, patch):
        encoded = codec.trace_to_dict(sample_trace())
        encoded.update(patch)
        with pytest.raises(codec.CodecError, match="malformed trace"):
            codec.trace_from_dict(encoded)

    @pytest.mark.parametrize("wire_format", codec.WIRE_FORMATS)
    def test_columns_are_adopted_and_shipped_again_as_they_are(self, wire_format):
        trace = sample_trace()
        frame = codec.encode_frame({"trace": codec.trace_to_dict(trace)},
                                   wire_format=wire_format)
        decoded = codec.decode_frame(frame)["trace"]
        rebuilt = codec.trace_from_dict(decoded)
        for name in ("size_bytes", "sources", "dests"):
            assert getattr(rebuilt, name) is decoded[name]
            assert list(getattr(rebuilt, name)) == list(getattr(trace, name))
        assert rebuilt.kinds == trace.kinds == bytearray(b"hhrrgG")
        assert rebuilt.timed_out == trace.timed_out == [2]
        if wire_format == codec.FORMAT_BINARY:
            assert isinstance(rebuilt.sources, array)
            assert codec.trace_to_dict(rebuilt)["sources"] is rebuilt.sources
        # The client's retry accounting records into the adopted columns.
        rebuilt.record_route([], retries=2, timeouts=2)
        assert (rebuilt.message_count, rebuilt.timeout_count) == (8, 3)
        assert rebuilt.total_bytes == trace.total_bytes + 2 * 64
        assert rebuilt.messages[:6] == trace.messages

    @pytest.mark.parametrize("patch", [
        {"size_bytes": [1.5, -7, 64, 64, 64, 777]},          # a float size
        {"dests": [True, 3, -1, -1, 4, 9]},                  # a bool endpoint
        {"sources": [3, 7, None, -1, 9, 4]},                 # a null endpoint
        {"size_bytes": [64, 64, 64, 64, 64, -1]},            # a negative size
        {"sources": [3, 7, -2, -1, 9, 4]},                   # an endpoint below -1
        {"dests": array("q", [7, 9, -1, -5, 4, 9])},         # ... in a packed column
        {"size_bytes": array("q", [64, 64, 64, -64, 64, 777])},
        {"sources": array("Q", [3, 7, 1, 1, 9, 4])},         # not an int64 column
        {"dests": (7, 9, -1, -1, 4, 9)},                     # not a column at all
        {"timed_out": [2, 3.0]},
        {"timed_out": [True]},
    ])
    def test_columns_that_are_not_sane_integers_are_a_codec_error(self, patch):
        encoded = codec.trace_to_dict(sample_trace())
        encoded.update(patch)
        with pytest.raises(codec.CodecError, match="malformed trace columns"):
            codec.trace_from_dict(encoded)

    def test_a_json_frame_cannot_smuggle_a_negative_byte_total(self):
        """The 1.8.0 decoder returned ``total_bytes == -5.5`` for this frame."""
        frame = codec.encode_frame({"trace": {
            "kinds": "hh", "size_bytes": [1.5, -7], "sources": [1, 2],
            "dests": [True, 3]}})
        with pytest.raises(codec.CodecError, match="size_bytes is not a column"):
            codec.trace_from_dict(codec.decode_frame(frame)["trace"])

    def test_repeated_timed_out_indices_count_once(self):
        encoded = codec.trace_to_dict(sample_trace())
        encoded["timed_out"] = [3, 2, 3, 2]
        rebuilt = codec.trace_from_dict(encoded)
        assert rebuilt.timed_out == [2, 3] and rebuilt.timeout_count == 2

    def test_rebuilding_does_not_re_record(self, monkeypatch):
        """One ``Message`` per message: no second pass through ``record``."""
        def forbidden(*args, **kwargs):
            raise AssertionError("trace_from_dict went through record()")

        encoded = codec.trace_to_dict(sample_trace())
        monkeypatch.setattr(OperationTrace, "record", forbidden)
        rebuilt = codec.trace_from_dict(encoded)
        assert rebuilt.messages[-1] == Message(MessageKind.GET_REPLY, 777,
                                               source=4, dest=9)


@pytest.fixture(scope="module")
def sample_results():
    """Real results from a small in-process cluster (one of each type)."""
    cluster = Cluster.build(peers=16, replicas=4, seed=5)
    with cluster.session() as session:
        insert = session.insert("k", {"v": 1})
        retrieve = session.retrieve("k")
        batch_insert = session.insert_many([("a", {"n": 1}), ("b", {"n": 2})])
        batch_retrieve = session.retrieve_many(["a", "b", "missing"])
    return insert, retrieve, batch_insert, batch_retrieve


class TestResultEncoding:
    def test_insert_result_round_trip(self, sample_results):
        insert = sample_results[0]
        rebuilt = codec.insert_result_from_dict(
            codec.insert_result_to_dict(insert))
        assert rebuilt.key == insert.key
        assert rebuilt.replicas_written == insert.replicas_written
        assert rebuilt.replicas_attempted == insert.replicas_attempted
        assert rebuilt.timestamp == insert.timestamp
        assert rebuilt.version == insert.version
        assert rebuilt.service == insert.service
        assert rebuilt.trace.message_count == insert.trace.message_count

    def test_retrieve_result_round_trip(self, sample_results):
        retrieve = sample_results[1]
        rebuilt = codec.retrieve_result_from_dict(
            codec.retrieve_result_to_dict(retrieve))
        assert rebuilt.key == retrieve.key
        assert rebuilt.data == retrieve.data
        assert rebuilt.found and rebuilt.is_current
        assert rebuilt.timestamp == retrieve.timestamp
        assert rebuilt.latest_timestamp == retrieve.latest_timestamp
        assert rebuilt.replicas_inspected == retrieve.replicas_inspected
        assert rebuilt.consistency == retrieve.consistency
        assert rebuilt.trace.message_count == retrieve.trace.message_count

    def test_batch_results_rebuild_one_shared_trace(self, sample_results):
        batch_insert, batch_retrieve = sample_results[2], sample_results[3]
        rebuilt = codec.batch_insert_result_from_dict(
            codec.batch_insert_result_to_dict(batch_insert))
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)
        assert rebuilt.trace.message_count == batch_insert.trace.message_count
        rebuilt = codec.batch_retrieve_result_from_dict(
            codec.batch_retrieve_result_to_dict(batch_retrieve))
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)
        assert [item.found for item in rebuilt.results] == \
            [item.found for item in batch_retrieve.results]
        assert rebuilt.results[0].data == batch_retrieve.results[0].data
