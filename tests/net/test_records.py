"""The protocol's objects as native binary records (repro.net.wire).

The four result types travel as tagged records, and a trace as its
fixed-size summary record.  Pinned here: what a frame carrying one says —
as :func:`~repro.net.codec.describe` renders it, leaf types included (a
timestamp shares its result's key only when type and value are equal) — is
what the ``*_to_dict`` view of the object itself says, first on a connection
or behind another frame; a rebuilt object packs to the bytes it came from; a
:class:`~repro.dht.messages.TraceSummary` comes back without its sizes and
its hook, and a batch still rebuilds one shared summary; and a corrupted record — a count
beyond the body, a cut at any offset, an unknown flag or code, or more
timeouts than messages — only ever raises
:class:`~repro.net.codec.CodecError`.  Record fields are unsigned varints: a
negative counter or summary field, and a field past int32 or int64, cannot be
written at all.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_columns import Columns, record_columns

from repro.api.cluster import Cluster
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.net import codec, wire

_VIEWS = {
    TraceSummary: codec.trace_to_dict,
    InsertResult: codec.insert_result_to_dict,
    RetrieveResult: codec.retrieve_result_to_dict,
    BatchInsertResult: codec.batch_insert_result_to_dict,
    BatchRetrieveResult: codec.batch_retrieve_result_to_dict,
}


def via_wire(value):
    frame = codec.encode_frame({"result": value}, stream=codec.DeflateStream())
    return codec.decode_frame(frame)["result"]


def described(value) -> str:
    """Everything a frame carrying ``value`` says, as ``describe`` renders it:
    JSON keeps ``1``, ``1.0``, ``true`` and ``"1"`` apart."""
    return codec.describe(codec.encode_frame({"result": value}))


def viewed(value) -> str:
    """The same rendering of ``value`` itself, without the wire."""
    return json.dumps({"result": _VIEWS[type(value)](value)}, indent=2,
                      sort_keys=True)


def trace(*, timeouts: int = 1) -> TraceSummary:
    """A recorded trace of its own sizes, with a hook: neither travels."""
    made = TraceSummary(0, 0, 0, 64, MessageSizes(control_bytes=64, data_bytes=512),
                        Columns())
    made.record_route([3, 7, 9], retries=2, timeouts=timeouts)
    made.record(MessageKind.GET_REQUEST, source=9, dest=4)
    made.record(MessageKind.GET_REPLY, source=4, dest=None, size_bytes=777)
    return made


def insert(**fields) -> InsertResult:
    base = dict(key="k", replicas_written=3, replicas_attempted=4,
                trace=trace(), timestamp=Timestamp("k", 5), service="ums")
    base.update(fields)
    return InsertResult(**base)


def retrieve(**fields) -> RetrieveResult:
    base = dict(key="k", data={"v": [1, 2.5, None]}, found=True,
                is_current=True, replicas_inspected=2, trace=trace(),
                timestamp=Timestamp("k", 5), latest_timestamp=Timestamp("k", 5),
                service="ums")
    base.update(fields)
    return RetrieveResult(**base)


def _batches():
    shared = trace()
    inserts = BatchInsertResult(
        results=(insert(key="a", trace=shared), insert(key="b", trace=shared,
                                                       timestamp=None)),
        trace=shared)
    reads = BatchRetrieveResult(
        results=(retrieve(key="a", trace=shared, consistency="best-effort"),
                 retrieve(key="missing", data=None, found=False,
                          is_current=False, timestamp=None, trace=shared)),
        trace=shared, consistency="best-effort")
    unlisted = BatchRetrieveResult(results=(), trace=TraceSummary(0, 0, 0, 128),
                                   consistency="eventual")
    return {"batch-insert": inserts, "batch-retrieve": reads,
            "batch-unlisted-level": unlisted}


CASES = {
    "insert": insert(),
    "retrieve": retrieve(),
    "no-timestamps": retrieve(found=False, is_current=False, data=None,
                              timestamp=None, latest_timestamp=None),
    "foreign-key-stamp": retrieve(timestamp=Timestamp("other", 4)),
    "int-key": insert(key=1, timestamp=Timestamp(1, 3)),
    "bool-key-int-stamp": insert(key=True, timestamp=Timestamp(1, 3)),
    "float-key-bool-stamp": retrieve(key=1.0, timestamp=Timestamp(True, 2),
                                     latest_timestamp=Timestamp(1.0, 2)),
    "int-key-float-stamp": retrieve(key=1, timestamp=Timestamp(1.0, 2),
                                    latest_timestamp=Timestamp(1, 2)),
    "list-key": insert(key=["k", 1], timestamp=Timestamp(["k", 1], 2)),
    "best-effort": retrieve(consistency="best-effort", is_current=False),
    "any": retrieve(consistency="any", latest_timestamp=None),
    "unlisted-level": retrieve(consistency="eventual"),
    "brk-version-ambiguous": retrieve(version=7, ambiguous=True, service="brk",
                                      is_current=False, timestamp=None,
                                      latest_timestamp=None),
    "insert-version": insert(version=3, service="brk", timestamp=None),
    "empty-trace": insert(trace=TraceSummary(0, 0, 0, 128)),
    "timed-out-messages": retrieve(trace=trace(timeouts=2)),
    "summary-trace": insert(trace=TraceSummary(7, 2 ** 40, 7, 0)),
    "trace-alone": trace(),
    "summary-alone": TraceSummary(2 ** 31 - 1, 2 ** 63 - 1, 0, 2 ** 63 - 1),
    "widest-summary": TraceSummary(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1,
                                   2 ** 64 - 1),
    **_batches(),
}


@st.composite
def summaries(draw) -> TraceSummary:
    """Any summary a record can carry: fields of at most 64 bits, none
    below 0, no more timeouts than messages."""
    messages = draw(st.integers(min_value=0, max_value=2 ** 64 - 1))
    return TraceSummary(messages, draw(st.integers(0, 2 ** 64 - 1)),
                        draw(st.integers(0, messages)),
                        draw(st.integers(0, 2 ** 64 - 1)))


@pytest.fixture(scope="module", params=[32, 64, 160], ids=lambda bits: f"bits{bits}")
def served_results(request):
    """Real results of each type from an in-process cluster of ``bits``, and
    the columns its recorder took: those carry the peer ids the summary
    leaves out."""
    cluster = Cluster.build(peers=16, replicas=4, seed=5, bits=request.param)
    columns = record_columns(cluster.network)
    with cluster.session() as session:
        made = [session.insert("k", {"v": 1}), session.retrieve("k"),
                session.insert_many([("a", {"n": 1}), ("b", {"n": 2})]),
                session.retrieve_many(["a", "b", "missing"])]
    return request.param, made, columns


class TestRoundTrip:
    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_the_wire_rebuilds_the_same_objects(self, value):
        assert type(via_wire(value)) is type(value)
        assert described(value) == viewed(value)

    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_a_mid_stream_frame_rebuilds_the_same_objects(self, value):
        # Behind another record on the same connection, the frame's deflate
        # piece may refer back to the first frame's bytes.
        stream = codec.DeflateStream()
        first = codec.encode_frame({"result": CASES["retrieve"]}, stream=stream)
        second = codec.encode_frame({"result": value}, stream=stream)
        rebuilt = codec.FrameDecoder().feed(first + second)[1]["result"]
        assert type(rebuilt) is type(value)
        decoder = codec.FrameDecoder()
        decoder.feed(first)
        assert codec.describe(second, decoder) == viewed(value)

    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_a_rebuilt_object_packs_to_the_same_bytes(self, value):
        # Decoding loses nothing the encoder wrote: not a leaf type, not a
        # shared counter, not a summary field.
        assert wire.pack_payload({"result": via_wire(value)}) == \
            wire.pack_payload({"result": value})

    def test_served_results_rebuild_the_same_objects(self, served_results):
        bits, made, columns = served_results
        for value in made:
            rebuilt = via_wire(value)
            assert type(rebuilt) is type(value)
            assert rebuilt.trace == value.trace
            assert described(value) == viewed(value)
            assert wire.pack_payload({"result": rebuilt}) == \
                wire.pack_payload({"result": value})
        if bits > 63:  # peer ids past int64 stay with the recorder that has them
            assert any(peer >= 2 ** 63 for peer in columns.sources)

    @given(made=summaries())
    @settings(max_examples=200, deadline=None)
    def test_any_summary_rebuilds_field_for_field(self, made):
        rebuilt = via_wire(made)
        assert rebuilt == made and rebuilt is not made
        assert wire.pack_payload({"result": rebuilt}) == \
            wire.pack_payload({"result": made})

    @pytest.mark.parametrize("name", ["batch-insert", "batch-retrieve"])
    def test_a_batch_rebuilds_one_shared_trace(self, name):
        rebuilt = via_wire(CASES[name])
        assert len(rebuilt.results) == 2
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)
        assert rebuilt.trace == CASES[name].trace

    def test_a_trace_field_that_is_no_trace_is_refused_at_encode(self):
        with pytest.raises(codec.CodecError, match="must be a TraceSummary"):
            wire.pack_payload({"result": insert(trace={"message_count": 3})})
        # A field no varint holds: below 0, or past 64 bits.
        for fields in ((-1, 0, 0, 0), (0, 2 ** 64, 0, 0), (0, 0, 0, -64)):
            with pytest.raises(codec.CodecError, match="unsigned 64-bit varint"):
                wire.pack_payload({"result": TraceSummary(*fields)})

    def test_only_an_equal_type_key_shares_its_counter(self):
        def packed_size(stamp_key):
            return len(tagged({"result": insert(
                key=1, timestamp=Timestamp(stamp_key, 3))}))

        shared = packed_size(1)
        assert shared < packed_size(True) and shared < packed_size(1.0)
        # Equal strings share whichever object the key came in.
        spelled = "".join(["k", "ey"])
        assert len(tagged({"result": insert(
            key="key", timestamp=Timestamp(spelled, 3))})) < len(
                tagged({"result": insert(
                    key="key", timestamp=Timestamp("kez", 3))}))


# --------------------------------------------------------------- corruption
#: In the tagged encoding of ``{"result": record}`` — ``d``, its count, the
#: length-prefixed key, the record tag — the record's fields start here.
FIELDS = 10


def varints(*values: int) -> bytes:
    """``values`` as unsigned LEB128 varints, spelled out."""
    out = bytearray()
    for value in values:
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def flags_at(value) -> int:
    """Where the flags of the point record ``value`` sit: behind its summary."""
    trace = value.trace
    return FIELDS + len(varints(trace.message_count, trace.total_bytes,
                                trace.timeout_count, trace.retry_bytes))


def tagged(payload) -> bytes:
    """The tagged encoding of ``payload``: its first-frame body, inflated."""
    body = wire.pack_payload(payload)
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(body[1:] + b"\x00\x00\xff\xff")


def deflated(encoding) -> bytes:
    """The ``0x02`` body carrying ``encoding`` as a fresh stream's first frame."""
    return wire.DeflateStream().deflate(bytes(encoding))


def _refused(encoding: bytes, match: Optional[str]) -> None:
    with pytest.raises(codec.CodecError, match=match):
        wire.unpack_payload(deflated(encoding))


def summary_record(messages: int, total: int, timeouts: int, retry: int) -> bytes:
    """The tagged encoding of ``{"result": <summary>}``, spelled out field by
    field (the record's fields are not checked here)."""
    return (tagged({"result": None})[:FIELDS - 1] + b"o"
            + varints(messages, total, timeouts, retry))


#: Summary records that are not a trace's, and what refuses each.  A field
#: below 0 (once refused here) has no varint.
SUMMARY_CORRUPTIONS = {
    "more-timeouts-than-messages": ((2, 128, 3, 64), "3 timeouts in 2 messages"),
    "timeouts-without-messages": ((0, 0, 1, 64), "1 timeouts in 0 messages"),
    "widest-timeouts": ((2 ** 64 - 2, 0, 2 ** 64 - 1, 0),
                        f"{2 ** 64 - 1} timeouts in {2 ** 64 - 2} messages"),
}

#: Summary records at the edges of what a trace's may be: each is adopted.
SUMMARY_EDGES = {
    "all-zero": (0, 0, 0, 0),
    "every-message-timed-out": (5, 320, 5, 64),
    "past-int32-and-int64": (2 ** 31, 2 ** 63, 2 ** 31, 2 ** 63),
    "widest": (2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1),
}


def _hosted(name: str, summary: TraceSummary):
    """The record ``name`` with ``summary`` as its (shared) trace."""
    if name == "insert":
        return insert(trace=summary)
    if name == "retrieve":
        return retrieve(trace=summary)
    batch = CASES[name]
    return dataclasses.replace(
        batch, trace=summary,
        results=tuple(dataclasses.replace(item, trace=summary)
                      for item in batch.results))


#: The records a summary rides in: alone in a result, or once for a batch.
HOSTS = ("insert", "retrieve", "batch-insert", "batch-retrieve")


class TestCorruptRecords:
    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_a_cut_at_every_offset_is_refused(self, value):
        body = tagged({"result": value})
        for end in range(len(body)):
            _refused(body[:end], None)

    @given(name=st.sampled_from(sorted(CASES)),
           junk=st.binary(min_size=1, max_size=16),
           position=st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_overwritten_bytes_only_ever_raise_codec_error(
            self, name, junk, position):
        body = bytearray(tagged({"result": CASES[name]}))
        start = position % len(body)
        body[start:start + len(junk)] = junk
        try:
            wire.unpack_payload(deflated(body))
        except codec.CodecError:
            pass

    def test_unknown_result_flags_are_refused(self):
        body = bytearray(tagged({"result": CASES["retrieve"]}))
        body[flags_at(CASES["retrieve"])] |= 0x80
        _refused(body, "unknown retrieve record flags")
        body = bytearray(tagged({"result": CASES["insert"]}))
        body[flags_at(CASES["insert"])] |= 0x02
        _refused(body, "unknown insert record flags")

    def test_an_unknown_consistency_code_is_refused(self):
        body = bytearray(tagged({"result": CASES["retrieve"]}))
        body[flags_at(CASES["retrieve"]) + 1] = 0x07
        _refused(body, "unknown consistency code")

    def test_the_spelled_out_point_records_are_the_encoders(self):
        # A point record opens with its summary, then its flags, the
        # consistency code (a retrieve's), its counts and own-key counters.
        made = CASES["retrieve"]
        assert tagged({"result": made})[FIELDS:flags_at(made) + 5] == \
            varints(6, 5 * 64 + 777, 1, 64) + bytes((0x1B, 0x00)) + varints(2, 5, 5)
        made = CASES["insert"]
        assert tagged({"result": made})[flags_at(made):flags_at(made) + 4] == \
            bytes((0x08,)) + varints(3, 4, 5)

    def test_the_spelled_out_record_is_the_encoders(self):
        made = trace()
        assert summary_record(6, 5 * 64 + 777, 1, 64) == \
            tagged({"result": made}) == \
            tagged({"result": TraceSummary(made.message_count, made.total_bytes,
                                           made.timeout_count, made.retry_bytes)})

    @pytest.mark.parametrize("fields, match", SUMMARY_CORRUPTIONS.values(),
                             ids=SUMMARY_CORRUPTIONS.keys())
    def test_a_summary_that_is_no_traces_is_refused(self, fields, match):
        _refused(summary_record(*fields), match)

    @pytest.mark.parametrize("host", HOSTS)
    @pytest.mark.parametrize("fields, match", SUMMARY_CORRUPTIONS.values(),
                             ids=SUMMARY_CORRUPTIONS.keys())
    def test_a_summary_that_is_no_traces_is_refused_in_any_record(
            self, fields, match, host):
        # The encoder packs any fields that fit their widths; the receiver
        # checks them wherever the summary rides.
        _refused(tagged({"result": _hosted(host, TraceSummary(*fields))}), match)

    @pytest.mark.parametrize("fields", SUMMARY_EDGES.values(),
                             ids=SUMMARY_EDGES.keys())
    def test_a_summary_at_its_bounds_is_adopted(self, fields):
        body = deflated(summary_record(*fields))
        assert wire.unpack_payload(body) == {"result": TraceSummary(*fields)}
        assert wire.pack_payload(wire.unpack_payload(body)) == body

    def test_a_summary_cut_short_is_refused(self):
        record = summary_record(6, 5 * 64 + 777, 1, 64)
        for cut in range(1, len(varints(6, 5 * 64 + 777, 1, 64)) + 1):
            _refused(record[:-cut], "truncated")

    def test_a_batch_count_beyond_the_body_is_refused(self):
        body = bytearray(tagged({"result": CASES["batch-insert"]}))
        assert body[FIELDS] == 2
        body[FIELDS:FIELDS + 1] = varints(10 ** 6)
        _refused(body, "truncated")
