"""The protocol's objects as native binary records (repro.net.wire).

Traces and the four result types travel as tagged records.  Pinned here:
what a frame carrying one says — as :func:`~repro.net.codec.describe`
renders it, leaf types included (a timestamp shares its result's key only
when type and value are equal) — is what the ``*_to_dict`` view of the
object itself says, first on a connection or behind another frame; a
rebuilt object packs to the bytes it came from; a batch still rebuilds one
shared trace; and a corrupted record — a bad kind code, a count beyond the
body, a cut at any offset, an unknown flag or code, a trace column that is
not sane integers of the trace's length — only ever raises
:class:`~repro.net.codec.CodecError`.
"""

from __future__ import annotations

import json
import struct
from array import array
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, MessageSizes, OperationTrace
from repro.net import codec, wire

_VIEWS = {
    OperationTrace: codec.trace_to_dict,
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


def trace(*, timeouts: int = 1, big_ids: bool = False) -> OperationTrace:
    made = OperationTrace(sizes=MessageSizes(control_bytes=64, data_bytes=512))
    made.record_route([3, 7, 9], retries=2, timeouts=timeouts)
    made.record(MessageKind.GET_REQUEST, source=9, dest=4)
    made.record(MessageKind.GET_REPLY, source=4, dest=None, size_bytes=777)
    if big_ids:
        made.record(MessageKind.LOOKUP_HOP, source=2 ** 63, dest=2 ** 159 + 1)
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
    unlisted = BatchRetrieveResult(results=(), trace=OperationTrace(),
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
    "empty-trace": insert(trace=OperationTrace()),
    "timed-out-messages": retrieve(trace=trace(timeouts=2)),
    "ids-beyond-int64": retrieve(trace=trace(big_ids=True)),
    "trace-alone": trace(),
    **_batches(),
}


@pytest.fixture(scope="module", params=[32, 64, 160], ids=lambda bits: f"bits{bits}")
def served_results(request):
    """Real results of each type from an in-process cluster of ``bits``."""
    cluster = Cluster.build(peers=16, replicas=4, seed=5, bits=request.param)
    with cluster.session() as session:
        made = [session.insert("k", {"v": 1}), session.retrieve("k"),
                session.insert_many([("a", {"n": 1}), ("b", {"n": 2})]),
                session.retrieve_many(["a", "b", "missing"])]
    return request.param, made


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
        # shared counter, not a column's form.
        assert wire.pack_payload({"result": via_wire(value)}) == \
            wire.pack_payload({"result": value})

    def test_served_results_rebuild_the_same_objects(self, served_results):
        bits, made = served_results
        for value in made:
            assert type(via_wire(value)) is type(value)
            assert described(value) == viewed(value)
        if bits > 63:  # the list-column fallback was exercised
            assert any(peer >= 2 ** 63 for value in made
                       for peer in value.trace.sources)

    @pytest.mark.parametrize("name", ["batch-insert", "batch-retrieve"])
    def test_a_batch_rebuilds_one_shared_trace(self, name):
        rebuilt = via_wire(CASES[name])
        assert len(rebuilt.results) == 2
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)

    def test_only_an_equal_type_key_shares_its_counter(self):
        def packed_size(stamp_key):
            return len(wire.pack_payload({"result": insert(
                key=1, timestamp=Timestamp(stamp_key, 3))}))

        shared = packed_size(1)
        assert shared < packed_size(True) and shared < packed_size(1.0)
        # Equal strings share whichever object the key came in.
        spelled = "".join(["k", "ey"])
        assert len(wire.pack_payload({"result": insert(
            key="key", timestamp=Timestamp(spelled, 3))})) < len(
                wire.pack_payload({"result": insert(
                    key="key", timestamp=Timestamp("kez", 3))}))


# --------------------------------------------------------------- corruption
#: In the ``0x01`` body of ``{"result": record}`` — marker, ``d``, u32 count,
#: the key code, the record tag — the record's fixed fields start here.
FIELDS = 8


def _refused(body: bytes, match: Optional[str]) -> None:
    with pytest.raises(codec.CodecError, match=match):
        wire.unpack_payload(bytes(body))


#: The columns of ``trace()``, as its record carries them.
SIZES = (64, 64, 64, 64, 64, 777)
SOURCES = (3, 7, -1, -1, 9, 4)
DESTS = (7, 9, -1, -1, 4, -1)


def trace_record(*, kinds: bytes = b"hhrrgG", size_bytes=SIZES,
                 sources=SOURCES, dests=DESTS, timed_out=(2,)) -> bytes:
    """The ``0x01`` body of ``{"result": trace()}``, spelled out field by
    field: a column given as a tuple travels as packed int64s, anything else
    as a tagged value with the column's list flag set."""
    lists, columns = 0, b""
    for flag, column in zip((1, 2, 4), (size_bytes, sources, dests)):
        if isinstance(column, tuple):
            columns += struct.pack(f">{len(column)}q", *column)
        else:
            lists |= flag
            columns += wire.pack_payload({"result": column})[FIELDS - 1:]
    return (wire.pack_payload({"result": None})[:FIELDS - 1] + b"o"
            + struct.pack(">qqIB", 64, 512, len(kinds), lists) + kinds + columns
            + struct.pack(f">I{len(timed_out)}q", len(timed_out), *timed_out))


#: Trace records whose columns are not a trace, and what refuses each.
COLUMN_CORRUPTIONS = {
    # A list column (ids beyond int64 take that form) holds integers only.
    "float-size": (dict(size_bytes=[1.5, 64, 64, 64, 64, 777]), "other than integers"),
    "bool-endpoint": (dict(dests=[True, 9, -1, -1, 4, -1]), "other than integers"),
    "null-endpoint": (dict(sources=[3, 7, None, -1, 9, 4]), "other than integers"),
    "string-endpoint": (dict(sources=["a", 7, -1, -1, 9, 4]), "other than integers"),
    "nested-endpoint": (dict(dests=[[7], 9, -1, -1, 4, -1]), "other than integers"),
    "string-column": (dict(dests="7,9,-1,-1,4,-1"), "other than integers"),
    "array-column": (dict(sources=array("q", SOURCES)), "other than integers"),
    # Sizes are >= 0 and endpoints >= -1, packed or listed.
    "negative-size": (dict(size_bytes=(64, 64, 64, -64, 64, 777)), "below"),
    "negative-size-listed": (dict(size_bytes=[64, 64, 64, 64, 64, -1]), "below"),
    "source-below-minus-one": (dict(sources=(3, 7, -2, -1, 9, 4)), "below"),
    "dest-below-minus-one-listed": (dict(dests=[7, 9, -1, -5, 4, -1]), "below"),
    # A list column carries a count of its own: it must be the trace's.
    "short-sizes-list": (dict(size_bytes=[64, 64, 64, 64, 64]), "differ in length"),
    "short-sources-list": (dict(sources=[3, 7, -1, -1, 9]), "differ in length"),
    "long-dests-list": (dict(dests=[7, 9, -1, -1, 4, -1, 1]), "differ in length"),
    # The timed-out indices lie inside the trace.
    "timed-out-negative": (dict(timed_out=(2, -1)), "timed_out index"),
    "timed-out-past-the-end": (dict(timed_out=(2, 6)), "timed_out index"),
    "timed-out-far-past": (dict(timed_out=(2, 2 ** 40)), "timed_out index"),
    # Every kind byte is a known code.
    "unknown-kind": (dict(kinds=b"hhrr?G"), "unknown message kind"),
    "nul-kind": (dict(kinds=b"hhrr\x00G"), "unknown message kind"),
}


class TestCorruptRecords:
    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_a_cut_at_every_offset_is_refused(self, value):
        body = wire.pack_payload({"result": value})
        for end in range(1, len(body)):
            with pytest.raises(codec.CodecError):
                wire.unpack_payload(body[:end])

    @given(name=st.sampled_from(sorted(CASES)),
           junk=st.binary(min_size=1, max_size=16),
           position=st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_overwritten_bytes_only_ever_raise_codec_error(
            self, name, junk, position):
        body = bytearray(wire.pack_payload({"result": CASES[name]}))
        start = 1 + position % (len(body) - 1)
        body[start:start + len(junk)] = junk
        try:
            wire.unpack_payload(bytes(body))
        except codec.CodecError:
            pass

    def test_unknown_result_flags_are_refused(self):
        body = bytearray(wire.pack_payload({"result": CASES["retrieve"]}))
        body[FIELDS] |= 0x80
        _refused(body, "unknown retrieve record flags")
        body = bytearray(wire.pack_payload({"result": CASES["insert"]}))
        body[FIELDS] |= 0x02
        _refused(body, "unknown insert record flags")

    def test_an_unknown_consistency_code_is_refused(self):
        body = bytearray(wire.pack_payload({"result": CASES["retrieve"]}))
        body[FIELDS + 1] = 0x07
        _refused(body, "unknown consistency code")

    def test_a_negative_shared_counter_is_refused(self):
        body = bytearray(wire.pack_payload({"result": CASES["retrieve"]}))
        counter = FIELDS + 1 + 1 + 8  # flags, consistency, replicas inspected
        body[counter:counter + 8] = struct.pack(">q", -1)
        _refused(body, "negative timestamp counter")

    def test_trace_record_corruptions_are_refused(self):
        good = wire.pack_payload({"result": CASES["trace-alone"]})
        count, lists, kinds = FIELDS + 16, FIELDS + 20, FIELDS + 21
        for offset, patch, match in [
                (kinds, b"?", "unknown message kind code"),
                (count, struct.pack(">I", 2 ** 32 - 1), "truncated"),
                (count, struct.pack(">I", 7), "truncated|trailing"),
                (lists, b"\x08", "unknown trace record flags"),
                (lists, b"\x01", None),            # a list over packed bytes
                (len(good) - 8, struct.pack(">q", 6), "timed_out index"),
                (kinds + 6 + 8, struct.pack(">q", -7), "size below 0")]:
            body = bytearray(good)
            body[offset:offset + len(patch)] = patch
            _refused(body, match)

    def test_the_spelled_out_record_is_the_encoders(self):
        assert trace_record() == wire.pack_payload({"result": CASES["trace-alone"]})

    @pytest.mark.parametrize("column", ["size_bytes", "sources", "dests"])
    def test_a_list_column_of_sane_integers_is_adopted(self, column):
        fields = {"size_bytes": SIZES, "sources": SOURCES, "dests": DESTS}
        body = trace_record(**{column: list(fields[column])})
        rebuilt = wire.unpack_payload(body)["result"]
        assert getattr(rebuilt, column) == list(fields[column])
        assert rebuilt.messages == CASES["trace-alone"].messages

    @pytest.mark.parametrize("fields, match", COLUMN_CORRUPTIONS.values(),
                             ids=COLUMN_CORRUPTIONS.keys())
    def test_columns_that_are_not_a_trace_are_refused(self, fields, match):
        _refused(trace_record(**fields), match)

    def test_a_batch_count_beyond_the_body_is_refused(self):
        body = bytearray(wire.pack_payload({"result": CASES["batch-insert"]}))
        body[FIELDS:FIELDS + 4] = struct.pack(">I", 10 ** 6)
        _refused(body, "truncated")
