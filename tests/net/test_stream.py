"""One deflate stream per connection and direction (repro.net.wire/codec).

Every binary frame a connection writes is the next piece of one raw-deflate
stream, so the receiver must see every frame, in order: pinned here are the
failure modes of a stream frame (each one a ``CodecError`` that breaks the
stream for good, with the frames ahead of it still delivered), the sender's
size bound (checked before deflating, so a refused payload never advances the
stream), and what the transport does around the streams — a reply that
cannot be encoded is answered, a retry starts fresh streams on a fresh link,
a delayed reply keeps its place — over TCP and a Unix socket.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.api.results import InsertResult, RetrieveResult
from repro.net import codec, wire
from repro.net.client import TransportError, connect
from repro.net.server import FaultSchedule, NodeServer

#: The decoder-side view of a stream frame that breaks the stream.
BROKEN = "no resync"


@pytest.fixture(params=["tcp", "uds"])
def listen(request, serve, tmp_path):
    """Factory: serve a :class:`NodeServer` over TCP or a Unix socket (the
    test runs once per family) and return the address to connect to."""

    def _listen(server: NodeServer):
        if request.param == "tcp":
            return serve(server).tcp_address
        return serve(server, host=None, uds=str(tmp_path / "node.sock")).uds_path

    return _listen


@pytest.fixture
def small_frames(monkeypatch):
    """Patch the frame limit (both modules bind it) down to ``limit`` bytes."""

    def _limit(limit: int) -> None:
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", limit)
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", limit)

    return _limit


def _frames(payloads, stream=None):
    """``payloads`` as consecutive binary frames of one stream."""
    stream = stream or codec.DeflateStream()
    return [codec.encode_frame(payload, wire_format=codec.FORMAT_BINARY,
                               stream=stream) for payload in payloads]


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


PAYLOADS = [{"id": index, "op": "ping", "pad": "x" * (index * 40)}
            for index in range(3)]


# ------------------------------------------------------------ the sender bound
class TestSenderBound:
    """The sender bounds the packed size before it deflates — the bound the
    receiver's inflater enforces — so what it sends is what the receiver
    takes, and a payload it refuses leaves its stream untouched."""

    def test_a_compressible_payload_over_the_limit_is_refused_at_encode(
            self, small_frames):
        small_frames(4096)
        # Deflates to a few dozen bytes, but inflates to over the limit.
        with pytest.raises(codec.CodecError, match="limit"):
            codec.encode_frame({"blob": "x" * 5000},
                               wire_format=codec.FORMAT_BINARY)

    def test_what_the_encoder_emits_the_decoder_accepts(self, small_frames):
        small_frames(4096)
        rng = random.Random(7)
        noise = "".join(chr(rng.randrange(32, 0x250)) for _ in range(6000))
        accepted = refused = 0
        for size in range(3000, 6000, 97):
            for blob in ("x" * size, noise[:size]):
                frame_bytes = None
                try:
                    frame_bytes = codec.encode_frame(
                        {"blob": blob}, wire_format=codec.FORMAT_BINARY)
                except codec.CodecError:
                    refused += 1
                if frame_bytes is not None:
                    assert codec.decode_frame(frame_bytes) == {"blob": blob}
                    accepted += 1
        assert accepted and refused

    def test_a_refused_payload_leaves_the_stream_usable(self, small_frames):
        small_frames(4096)
        stream = codec.DeflateStream()
        first = codec.encode_frame(PAYLOADS[1], wire_format=codec.FORMAT_BINARY,
                                   stream=stream)
        with pytest.raises(codec.CodecError, match="limit"):
            codec.encode_frame({"blob": "y" * 8000},
                               wire_format=codec.FORMAT_BINARY, stream=stream)
        last = codec.encode_frame(PAYLOADS[2], wire_format=codec.FORMAT_BINARY,
                                  stream=stream)
        assert codec.FrameDecoder().feed(first + last) == PAYLOADS[1:]


# ------------------------------------------------------- broken stream frames
def _over_long(payloads, small_frames):
    """Frames encoded under the default limit, read under a smaller one."""
    frames = _frames(payloads[:1] + [{"blob": "z" * 6000}] + payloads[2:])
    small_frames(4096)
    return frames


def _stream_ending(payloads, small_frames):
    frames = _frames(payloads)
    final = zlib.compressobj(3, zlib.DEFLATED, -zlib.MAX_WBITS)
    packed = zlib.decompressobj(-zlib.MAX_WBITS).decompress(
        _frames(payloads[1:2])[0][5:] + b"\x00\x00\xff\xff")
    frames[1] = _frame(b"\x02" + final.compress(packed) + final.flush())
    return frames


def _corrupt(payloads, small_frames):
    frames = _frames(payloads)
    frames[1] = _frame(b"\x02not-deflate-data")
    return frames


def _truncated(cut):
    def build(payloads, small_frames):
        frames = _frames(payloads)
        frames[1] = _frame(frames[1][4:-cut])
        return frames
    return build


BAD_SECOND_FRAME = {
    "corrupt": _corrupt,
    "truncated-1": _truncated(1),
    "truncated-2": _truncated(2),
    "truncated-3": _truncated(3),
    "over-long": _over_long,
    "stream-ending": _stream_ending,
}


class TestBrokenStream:
    @pytest.mark.parametrize("build", BAD_SECOND_FRAME.values(),
                             ids=BAD_SECOND_FRAME.keys())
    def test_a_bad_stream_frame_breaks_the_stream_for_good(self, build,
                                                           small_frames):
        first, bad, third = build(PAYLOADS, small_frames)
        json_frame = codec.encode_frame({"id": 9, "op": "ping"})
        decoder = codec.FrameDecoder()
        # The frame ahead of the bad one comes out of the same chunk ...
        assert decoder.feed(first + bad + third + json_frame) == [PAYLOADS[0]]
        # ... the bad one is reported by the next call ...
        with pytest.raises(codec.CodecError):
            decoder.feed(b"")
        # ... and the stream frame behind it is refused: there is no resync.
        with pytest.raises(codec.CodecError, match=BROKEN):
            decoder.feed(b"")
        # JSON frames do not ride the stream and still decode.
        assert decoder.feed(b"") == [{"id": 9, "op": "ping"}]
        assert decoder.pending_bytes == 0
        with pytest.raises(codec.CodecError, match=BROKEN):
            decoder.feed(_frames(PAYLOADS[:1])[0])

    def test_a_truncated_frame_whose_payload_is_whole_is_still_refused(self):
        # Cutting the last byte loses only the end of the flush's block
        # header: the payload still inflates whole, but the inflater is left
        # inside a block, where the next frame would not decode.
        first, second, _third = _frames(PAYLOADS)
        body = second[4:-1]
        inflated = []
        for piece in (second[5:], body[1:]):
            inflater = zlib.decompressobj(-zlib.MAX_WBITS)
            inflater.decompress(first[5:] + b"\x00\x00\xff\xff")
            inflated.append(inflater.decompress(piece + b"\x00\x00\xff\xff"))
        assert inflated[0] == inflated[1]
        decoder = codec.FrameDecoder()
        assert decoder.feed(first) == PAYLOADS[:1]
        with pytest.raises(codec.CodecError, match="truncated"):
            decoder.feed(_frame(body))


# ------------------------------------------------------------- the transport
class TestTransport:
    @pytest.mark.parametrize("wire_format", codec.WIRE_FORMATS)
    def test_a_reply_over_the_frame_limit_is_answered_not_fatal(
            self, listen, small_frames, wire_format):
        """The retrieve runs, its reply cannot be encoded: the client gets a
        ``CodecError`` error reply, and the link carries on."""
        small_frames(300)
        server = NodeServer(peers=16, replicas=4, seed=11)
        with connect(listen(server), wire_format=wire_format) as cluster:
            with cluster.session() as session:
                with pytest.raises(TransportError, match="CodecError"):
                    session.retrieve("k")
            assert cluster.ping()
            assert cluster.client.counters.reconnects == 0
        assert server.requests_served == 3  # info, retrieve, ping

    def test_a_dropped_reply_is_retried_with_fresh_streams(self, listen):
        server = NodeServer(peers=16, replicas=4, seed=11,
                            fault_schedule=FaultSchedule(drop_replies={1}))
        with connect(listen(server), pool_size=1, timeout_s=0.3,
                     max_retries=1) as cluster:
            client = cluster.client
            assert client.wire_format == codec.FORMAT_BINARY
            client.request("retrieve", key="k")  # frame 1 of the first link
            before = client.counters.bytes_sent
            insert = {"op": "insert", "key": "k", "data": {"v": 1}}
            result, stats = client.request(**insert)
            # The retry went out as the first frame of a fresh link's
            # stream; the dropped attempt was the second of the old one.
            stream = codec.DeflateStream()
            retrieve_frame, dropped = _frames(
                [{"id": 1, "op": "retrieve", "key": "k"}, {"id": 2, **insert}],
                stream)
            retried = codec.encode_frame({"id": 2, **insert},
                                         wire_format=codec.FORMAT_BINARY)
            assert len(dropped) < len(retried)
            assert (stats.attempts, stats.retries) == (2, 1)
            assert stats.bytes_sent == len(dropped) + len(retried)
            assert client.counters.bytes_sent - before == stats.bytes_sent
            assert isinstance(result, InsertResult)
            assert result.replicas_written == 4
            read, _stats = client.request("retrieve", key="k")
            assert isinstance(read, RetrieveResult)
            assert read.data == {"v": 1} and read.is_current
            assert client.counters.reconnects == 1

    def test_a_delayed_reply_and_those_behind_it_decode_in_order(
            self, dial, read_replies):
        server = NodeServer(peers=16, replicas=4, seed=11,
                            fault_schedule=FaultSchedule(
                                delay_replies={0: 0.2}))
        requests = [{"id": 0, "op": "insert", "key": "k", "data": {"v": 1}},
                    {"id": 1, "op": "ping"},
                    {"id": 2, "op": "retrieve", "key": "k"},
                    {"id": 3, "op": "insert", "key": "k", "data": {"v": 2}},
                    {"id": 4, "op": "retrieve", "key": "k"}]
        with dial(server)() as raw:
            raw.sendall(b"".join(_frames(requests)))
            replies = read_replies(raw, len(requests))
        assert [reply["id"] for reply in replies] == list(range(len(requests)))
        assert replies[1]["result"] == "pong"
        assert [replies[index]["result"].data for index in (2, 4)] == \
            [{"v": 1}, {"v": 2}]

    def test_json_and_binary_connections_interleave_on_one_server(self, listen):
        address = listen(NodeServer(peers=16, replicas=4, seed=11))
        with connect(address, wire_format="json") as plain, \
                connect(address, wire_format="binary") as packed:
            with plain.session() as by_json, packed.session() as by_binary:
                for index in range(8):
                    by_json.insert(f"j{index}", {"n": index})
                    by_binary.insert(f"b{index}", {"n": -index})
                    assert by_binary.retrieve(f"j{index}").data == {"n": index}
                    assert by_json.retrieve(f"b{index}").data == {"n": -index}
            for remote in (plain, packed):
                assert remote.client.counters.reconnects == 0
            assert packed.client.counters.bytes_received * 2 < \
                plain.client.counters.bytes_received
