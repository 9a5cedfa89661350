"""The protocol's objects as native binary records (repro.net.wire).

Traces and the four result types travel as tagged records in a binary frame
and as their ``*_to_dict`` form in a JSON frame.  Pinned here: both paths
rebuild the same objects, leaf types included (a timestamp shares its
result's key only when type and value are equal); JSON frames are
byte-identical to encoding the dicts by hand; a batch still rebuilds one
shared trace; and a corrupted record — a bad kind code, a count beyond the
body, a cut at any offset, an unknown flag or code — only ever raises
:class:`~repro.net.codec.CodecError`.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
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

_FROM_DICT = {
    OperationTrace: codec.trace_from_dict,
    InsertResult: codec.insert_result_from_dict,
    RetrieveResult: codec.retrieve_result_from_dict,
    BatchInsertResult: codec.batch_insert_result_from_dict,
    BatchRetrieveResult: codec.batch_retrieve_result_from_dict,
}
_TO_DICT = {
    OperationTrace: codec.trace_to_dict,
    InsertResult: codec.insert_result_to_dict,
    RetrieveResult: codec.retrieve_result_to_dict,
    BatchInsertResult: codec.batch_insert_result_to_dict,
    BatchRetrieveResult: codec.batch_retrieve_result_to_dict,
}


def via_binary(value):
    frame = codec.encode_frame({"result": value}, wire_format=codec.FORMAT_BINARY)
    return codec.decode_frame(frame)["result"]


def via_json(value):
    decoded = codec.decode_frame(codec.encode_frame({"result": value}))["result"]
    return _FROM_DICT[type(value)](decoded)


def described(value):
    """Everything ``value`` says, with the type of every leaf spelled out."""
    if isinstance(value, OperationTrace):
        return ("trace", described(value.sizes), described(value.messages),
                tuple(value.timed_out), value.total_bytes)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((field.name, described(getattr(value, field.name)))
                      for field in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(described, value)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((key, described(item))
                                     for key, item in value.items())))
    return (type(value).__name__, repr(value))


def plain_body(payload) -> bytes:
    """``payload``'s ``0x01`` body: its fresh-stream frame, inflated."""
    body = wire.pack_payload(payload)
    return b"\x01" + zlib.decompressobj(-zlib.MAX_WBITS).decompress(
        body[1:] + b"\x00\x00\xff\xff")


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
    def test_binary_and_json_rebuild_the_same_objects(self, value):
        rebuilt = via_binary(value)
        assert type(rebuilt) is type(value)
        assert described(rebuilt) == described(via_json(value)) == \
            described(value)

    def test_served_results_rebuild_the_same_objects(self, served_results):
        bits, made = served_results
        for value in made:
            assert described(via_binary(value)) == described(via_json(value)) \
                == described(value)
        if bits > 63:  # the list-column fallback was exercised
            assert any(peer >= 2 ** 63 for value in made
                       for peer in value.trace.sources)

    @pytest.mark.parametrize("name", ["batch-insert", "batch-retrieve"])
    def test_a_batch_rebuilds_one_shared_trace(self, name):
        rebuilt = via_binary(CASES[name])
        assert len(rebuilt.results) == 2
        assert all(item.trace is rebuilt.trace for item in rebuilt.results)

    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_json_frames_are_the_dict_encoders_bytes(self, value):
        by_hand = {"result": _TO_DICT[type(value)](value)}
        assert codec.encode_frame({"result": value}) == \
            codec.encode_frame(by_hand)

    def test_only_an_equal_type_key_shares_its_counter(self):
        def packed_size(stamp_key):
            return len(plain_body({"result": insert(
                key=1, timestamp=Timestamp(stamp_key, 3))}))

        shared = packed_size(1)
        assert shared < packed_size(True) and shared < packed_size(1.0)
        # Equal strings share whichever object the key came in.
        spelled = "".join(["k", "ey"])
        assert len(plain_body({"result": insert(
            key="key", timestamp=Timestamp(spelled, 3))})) < len(plain_body(
                {"result": insert(key="key", timestamp=Timestamp("kez", 3))}))


# --------------------------------------------------------------- corruption
#: In the ``0x01`` body of ``{"result": record}`` — marker, ``d``, u32 count,
#: the key code, the record tag — the record's fixed fields start here.
FIELDS = 8


def _refused(body: bytes, match: Optional[str]) -> None:
    with pytest.raises(codec.CodecError, match=match):
        wire.unpack_payload(bytes(body))


class TestCorruptRecords:
    @pytest.mark.parametrize("value", CASES.values(), ids=CASES.keys())
    def test_a_cut_at_every_offset_is_refused(self, value):
        body = plain_body({"result": value})
        for end in range(1, len(body)):
            with pytest.raises(codec.CodecError):
                wire.unpack_payload(body[:end])

    @given(name=st.sampled_from(sorted(CASES)),
           junk=st.binary(min_size=1, max_size=16),
           position=st.integers(min_value=0))
    @settings(max_examples=300, deadline=None)
    def test_overwritten_bytes_only_ever_raise_codec_error(
            self, name, junk, position):
        body = bytearray(plain_body({"result": CASES[name]}))
        start = 1 + position % (len(body) - 1)
        body[start:start + len(junk)] = junk
        try:
            wire.unpack_payload(bytes(body))
        except codec.CodecError:
            pass

    def test_unknown_result_flags_are_refused(self):
        body = bytearray(plain_body({"result": CASES["retrieve"]}))
        body[FIELDS] |= 0x80
        _refused(body, "unknown retrieve record flags")
        body = bytearray(plain_body({"result": CASES["insert"]}))
        body[FIELDS] |= 0x02
        _refused(body, "unknown insert record flags")

    def test_an_unknown_consistency_code_is_refused(self):
        body = bytearray(plain_body({"result": CASES["retrieve"]}))
        body[FIELDS + 1] = 0x07
        _refused(body, "unknown consistency code")

    def test_a_negative_shared_counter_is_refused(self):
        body = bytearray(plain_body({"result": CASES["retrieve"]}))
        counter = FIELDS + 1 + 1 + 8  # flags, consistency, replicas inspected
        body[counter:counter + 8] = struct.pack(">q", -1)
        _refused(body, "negative timestamp counter")

    def test_trace_record_corruptions_are_refused(self):
        good = plain_body({"result": CASES["trace-alone"]})
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

    def test_a_batch_count_beyond_the_body_is_refused(self):
        body = bytearray(plain_body({"result": CASES["batch-insert"]}))
        body[FIELDS:FIELDS + 4] = struct.pack(">I", 10 ** 6)
        _refused(body, "truncated")
