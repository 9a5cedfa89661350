"""One deflate stream per connection and direction (repro.net.wire/codec).

Every binary frame a connection writes is the next piece of one raw-deflate
stream, so the receiver must see every frame, in order: pinned here are the
failure modes of a stream frame (each one a ``CodecError`` that breaks the
stream for good, with the frames ahead of it still delivered), the sender's
size bound (checked before deflating, so a refused payload never advances the
stream), the stream oracle (many frames through one sender and receiver,
each decoding to what was sent), and what the transport does around the
streams — a reply that cannot be encoded is answered, a retry starts fresh
streams on a fresh link, a delayed reply keeps its place — over TCP and a
Unix socket.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import Message

from repro.api.results import BatchInsertResult, InsertResult, RetrieveResult
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
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
    return [codec.encode_frame(payload, stream=stream) for payload in payloads]


def _frame(body: bytes) -> bytes:
    return codec.frame_header(len(body)) + body


def _body(frame: bytes) -> bytes:
    """``frame`` without its length prefix (its first two bits' form)."""
    return frame[1 << (frame[0] >> 6):]


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
                               stream=codec.DeflateStream())

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
                        {"blob": blob}, stream=codec.DeflateStream())
                except codec.CodecError:
                    refused += 1
                if frame_bytes is not None:
                    assert codec.decode_frame(frame_bytes) == {"blob": blob}
                    accepted += 1
        assert accepted and refused

    def test_a_refused_payload_leaves_the_stream_usable(self, small_frames):
        small_frames(4096)
        stream = codec.DeflateStream()
        first = codec.encode_frame(PAYLOADS[1], stream=stream)
        with pytest.raises(codec.CodecError, match="limit"):
            codec.encode_frame({"blob": "y" * 8000}, stream=stream)
        last = codec.encode_frame(PAYLOADS[2], stream=stream)
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
        _body(_frames(payloads[1:2])[0])[1:] + b"\x00\x00\xff\xff")
    frames[1] = _frame(b"\x02" + final.compress(packed) + final.flush())
    return frames


def _corrupt(payloads, small_frames):
    frames = _frames(payloads)
    frames[1] = _frame(b"\x02not-deflate-data")
    return frames


def _truncated(cut):
    def build(payloads, small_frames):
        frames = _frames(payloads)
        frames[1] = _frame(_body(frames[1])[:-cut])
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
        fresh_frame = codec.encode_frame({"id": 9, "op": "ping"})
        decoder = codec.FrameDecoder()
        # The frame ahead of the bad one comes out of the same chunk ...
        assert decoder.feed(first + bad + third + fresh_frame) == [PAYLOADS[0]]
        # ... the bad one is reported by the next call ...
        with pytest.raises(codec.CodecError):
            decoder.feed(b"")
        # ... and every frame behind it is refused, a fresh stream's first
        # one included: there is no resync.
        for _frame_behind in (third, fresh_frame):
            with pytest.raises(codec.CodecError, match=BROKEN):
                decoder.feed(b"")
        assert decoder.pending_bytes == 0
        with pytest.raises(codec.CodecError, match=BROKEN):
            decoder.feed(_frames(PAYLOADS[:1])[0])

    def test_a_truncated_frame_whose_payload_is_whole_is_still_refused(self):
        # Cutting the last byte loses only the end of the flush's block
        # header: the payload still inflates whole, but the inflater is left
        # inside a block, where the next frame would not decode.
        first, second, _third = _frames(PAYLOADS)
        body = _body(second)[:-1]
        inflated = []
        for piece in (_body(second)[1:], body[1:]):
            inflater = zlib.decompressobj(-zlib.MAX_WBITS)
            inflater.decompress(_body(first)[1:] + b"\x00\x00\xff\xff")
            inflated.append(inflater.decompress(piece + b"\x00\x00\xff\xff"))
        assert inflated[0] == inflated[1]
        decoder = codec.FrameDecoder()
        assert decoder.feed(first) == PAYLOADS[:1]
        with pytest.raises(codec.CodecError, match="truncated"):
            decoder.feed(_frame(body))


# ----------------------------------------------------------- the stream oracle
#: Peer ids: ``None`` (``-1`` in a trace), small ones, ids around 32 and 64
#: bits and far beyond.
_IDS = st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 16),
                 st.integers(min_value=2 ** 32 - 2, max_value=2 ** 32 + 2),
                 st.integers(min_value=2 ** 63 - 2, max_value=2 ** 64 + 2),
                 st.integers(min_value=2 ** 64, max_value=2 ** 160))

#: What a step of the connection does with its trace: a stream frame, a
#: batch reply, or a payload that fails mid-pack (after its trace is packed).
_MODES = ("stream", "batch", "refused")


@st.composite
def _connections(draw):
    """Steps of one connection: a mode and the messages of its trace."""
    message = st.builds(Message, kind=st.sampled_from(list(MessageKind)),
                        size_bytes=st.integers(min_value=0, max_value=2 ** 40),
                        source=_IDS, dest=_IDS, timed_out=st.booleans())
    return draw(st.lists(st.tuples(st.sampled_from(_MODES),
                                   st.lists(message, max_size=12)),
                         min_size=1, max_size=16))


def _trace_of(messages) -> TraceSummary:
    trace = TraceSummary(0, 0, 0, 128, MessageSizes(control_bytes=128))
    for kind, size_bytes, source, dest, timed_out in messages:
        trace.record(kind, source=source, dest=dest, size_bytes=size_bytes,
                     timed_out=timed_out)
    return trace


class TestStreamOracle:
    @given(steps=_connections())
    @settings(max_examples=150, deadline=None)
    def test_every_frame_of_a_connection_decodes_to_its_summaries(self, steps):
        """Each decoded trace is its source's summary, and the frame after a
        refused payload still decodes."""
        stream, decoder = codec.DeflateStream(), codec.FrameDecoder()
        for index, (mode, messages) in enumerate(steps):
            trace = _trace_of(messages)
            if mode == "refused":
                with pytest.raises(codec.CodecError):
                    codec.encode_frame({"a": trace, "z": object()}, stream=stream)
                continue
            other = _trace_of(messages[::-1])
            payload = {"id": index, "a": trace, "b": other}
            if mode == "batch":
                payload["b"] = BatchInsertResult(results=(InsertResult(
                    key="k", replicas_written=1, replicas_attempted=1,
                    trace=other),), trace=other)
            frame = codec.encode_frame(payload, stream=stream)
            (decoded,) = decoder.feed(frame)
            rebuilt = decoded["b"].trace if mode == "batch" else decoded["b"]
            assert decoded["a"] == trace
            assert rebuilt == other
        assert decoder.pending_bytes == 0


# ------------------------------------------------------------- the transport
class TestTransport:
    def test_a_reply_over_the_frame_limit_is_answered_not_fatal(
            self, listen, small_frames):
        """The retrieve runs, its reply cannot be encoded: the client gets a
        ``CodecError`` error reply, and the link carries on — the refused
        reply never advanced the server's stream."""
        limit = wire.MAX_FRAME_BYTES
        server = NodeServer(peers=16, replicas=4, seed=11)
        with connect(listen(server)) as cluster:
            with cluster.session() as session:
                session.insert("k", {"v": "x" * 400})
                small_frames(300)  # the request fits, the reply with its data not
                with pytest.raises(TransportError, match="CodecError"):
                    session.retrieve("k")
                small_frames(limit)
                session.insert("k", {"v": 1})
                assert session.retrieve("k").data == {"v": 1}
            assert cluster.ping()
            assert cluster.client.counters.reconnects == 0
        # info, insert, retrieve, insert, retrieve, ping
        assert server.requests_served == 6

    def test_a_dropped_reply_is_retried_with_fresh_streams(self, listen):
        server = NodeServer(peers=16, replicas=4, seed=11,
                            fault_schedule=FaultSchedule(drop_replies={1}))
        with connect(listen(server), pool_size=1, timeout_s=0.3,
                     max_retries=1) as cluster:
            client = cluster.client
            client.request("retrieve", key="k")  # frame 1 of the first link
            before = client.counters.bytes_sent
            insert = {"op": "insert", "key": "k", "data": {"v": 1}}
            result, stats = client.request(**insert)
            # The retry went out as the first frame of a fresh link's
            # stream; the dropped attempt was the third of the old one,
            # behind the handshake and the retrieve.
            *_before, dropped = _frames(
                [{"id": 0, "op": "info"}, {"id": 1, "op": "retrieve", "key": "k"},
                 {"id": 2, **insert}])
            retried = _frames([{"id": 2, **insert}])[0]
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
            replies = read_replies(raw, len(requests), keys=("k",))
        assert [reply["id"] for reply in replies] == list(range(len(requests)))
        assert replies[1]["result"] == "pong"
        assert [replies[index]["result"].data for index in (2, 4)] == \
            [{"v": 1}, {"v": 2}]

    def test_two_connections_interleave_on_one_server(self, listen):
        """Each connection has streams of its own: frames interleaved across
        two links on one event loop never reach the other's inflater."""
        address = listen(NodeServer(peers=16, replicas=4, seed=11))
        with connect(address) as first, connect(address) as second:
            with first.session() as one, second.session() as other:
                for index in range(8):
                    one.insert(f"a{index}", {"n": index})
                    other.insert(f"b{index}", {"n": -index})
                    assert other.retrieve(f"a{index}").data == {"n": index}
                    assert one.retrieve(f"b{index}").data == {"n": -index}
            for remote in (first, second):
                assert remote.client.counters.reconnects == 0
