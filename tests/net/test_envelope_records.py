"""The request/reply envelope as records (repro.net.wire), property-tested.

A request of one of the eight ops travels as a ``Q`` record: op code,
presence flags, consistency code, varint id, then its fields.  A reply
travels as an ``A`` (answer) or ``E`` (error) record, and an answer's result
record leaves out the keys its request named.  Pinned here, for every op
with each optional field left out, set to the server's default or set to
another value, and with ints at every varint width boundary (user data
below zero and past int64 included): every such request and reply comes
back as an equal dict, as a connection's first frame and behind another
one, and its packed body starts with its record's tag.  The frames a
:class:`~repro.net.client.NetClient` and a
:class:`~repro.net.server.NodeServer` actually write are all records.  A
dict of any other shape — an unknown op, a field too many or too few, an id
that is a ``bool``, negative, past 64 bits or no int, a reply whose ``ok``
is no bool or whose error is no string — travels as a tagged ``d`` dict and
comes back equal too.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from memory_link import MemoryNet

from repro.api.cluster import Cluster
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import TraceSummary
from repro.net import codec, wire
from repro.net.client import TransportError
from repro.net.server import NodeServer

#: Each op's fields as ``RemoteService`` sends and ``NodeServer`` reads them:
#: the ones it must carry and the ones it may (the service name on any op).
SHAPES = {
    "insert": (("key",), ("service", "data", "origin", "unreachable")),
    "retrieve": (("key",), ("service", "origin", "unreachable", "consistency",
                            "max_probes")),
    "insert_many": (("items",), ("service", "origin", "unreachable")),
    "retrieve_many": (("keys",), ("service", "origin", "unreachable",
                                  "consistency", "max_probes")),
    "ping": ((), ("service",)),
    "info": ((), ("service",)),
    "sync": ((), ("service", "keys")),
    "shutdown": ((), ("service",)),
}

FIELDS = {"id", "op"} | {name for required, optional in SHAPES.values()
                         for name in required + optional}

#: What the server reads for an optional field the request leaves out.
DEFAULTS = {"service": None, "data": None, "origin": None, "unreachable": [],
            "consistency": Consistency.CURRENT, "max_probes": None,
            "keys": None}

#: Ints on both sides of every varint width (2**7k) and of every zigzag
#: width (2**(7k-1)), up to and past 64 bits.
_EDGES = sorted({value for bits in [*range(0, 71, 7), *range(6, 71, 7), 63, 64]
                 for value in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1)})
UNSIGNED = [value for value in _EDGES if value < 1 << 64]
SIGNED = sorted(set(_EDGES) | {-value for value in _EDGES})

_unsigned = st.one_of(st.sampled_from(UNSIGNED), st.integers(0, 2 ** 64 - 1))
_user_ints = st.one_of(st.sampled_from(SIGNED), st.integers())
_keys = st.one_of(st.text(max_size=8), _user_ints)
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _user_ints, st.text(max_size=12),
              st.floats(allow_nan=False)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)

_levels = st.one_of(st.sampled_from(Consistency.ALL), st.text(max_size=10))

#: A drawn value for each field.
VALUES = {
    "service": st.one_of(st.none(), st.sampled_from(["ums", "brk", "paxos"])),
    "data": _values,
    "origin": st.one_of(st.none(), _unsigned),
    "unreachable": st.lists(_unsigned, max_size=4).map(sorted),
    "consistency": _levels,
    "max_probes": st.one_of(st.none(), _unsigned),
    "keys": st.lists(_keys, max_size=4),
    "key": _keys,
    "items": st.lists(st.tuples(_keys, _values).map(list), max_size=4),
}


@st.composite
def requests(draw, op=None) -> dict:
    """A request of ``op`` (any of the eight): its required fields, and each
    optional one left out, at its default or set."""
    op = op or draw(st.sampled_from(sorted(SHAPES)))
    required, optional = SHAPES[op]
    request = {"id": draw(_unsigned), "op": op}
    for name in required:
        request[name] = draw(VALUES[name])
    for name in optional:
        choice = draw(st.sampled_from(["left out", "default", "set"]))
        if choice == "default":
            request[name] = DEFAULTS[name]
        elif choice == "set":
            request[name] = draw(st.one_of(st.none(), VALUES[name])
                                 if name == "keys" else VALUES[name])
    return request


@st.composite
def summaries(draw) -> TraceSummary:
    messages = draw(_unsigned)
    return TraceSummary(messages, draw(_unsigned),
                        draw(st.integers(0, messages)), draw(_unsigned))


@st.composite
def stamps(draw, key):
    """A record's timestamp: none, of its own key, or of another key."""
    return draw(st.one_of(st.none(), st.builds(Timestamp, st.just(key), _unsigned),
                          st.builds(Timestamp, _keys, _unsigned)))


@st.composite
def record_keys(draw, key):
    """A record's key for a request that named ``key``: that key, or another
    one (it then travels)."""
    return draw(st.one_of(st.just(key), _keys))


@st.composite
def inserts(draw, key, trace) -> InsertResult:
    key = draw(record_keys(key))
    return InsertResult(key=key, replicas_written=draw(_unsigned),
                        replicas_attempted=draw(_unsigned), trace=trace,
                        timestamp=draw(stamps(key)),
                        version=draw(st.one_of(st.none(), _user_ints)),
                        service=draw(st.sampled_from(["ums", "brk"])))


@st.composite
def retrieves(draw, key, trace, level) -> RetrieveResult:
    key = draw(record_keys(key))
    return RetrieveResult(key=key, data=draw(_values), found=draw(st.booleans()),
                          is_current=draw(st.booleans()),
                          replicas_inspected=draw(_unsigned), trace=trace,
                          timestamp=draw(stamps(key)),
                          latest_timestamp=draw(stamps(key)),
                          version=draw(st.one_of(st.none(), _user_ints)),
                          ambiguous=draw(st.booleans()), consistency=level,
                          service=draw(st.sampled_from(["ums", "brk"])))


@st.composite
def results(draw, request):
    """What the server answers ``request`` with: a result record of its keys
    for a data op, the plain reply of any other."""
    op, keys = request["op"], codec.request_keys(request)
    trace = draw(summaries())
    level = request.get("consistency", Consistency.CURRENT)
    if op == "insert":
        return draw(inserts(keys[0], trace))
    if op == "retrieve":
        return draw(retrieves(keys[0], trace, level))
    if op == "insert_many":
        return BatchInsertResult(results=tuple(
            draw(inserts(key, trace)) for key in keys), trace=trace)
    if op == "retrieve_many":
        return BatchRetrieveResult(results=tuple(
            draw(retrieves(key, trace, level)) for key in keys), trace=trace,
            consistency=level)
    return draw(st.one_of(st.sampled_from(["pong", "stopping"]),
                          st.dictionaries(st.text(max_size=8), _values, max_size=4)))


@st.composite
def exchanges(draw):
    """A request and the server's reply to it: its answer, or an error."""
    request = draw(requests())
    if draw(st.booleans()):
        reply = {"id": request["id"], "ok": True, "result": draw(results(request))}
    else:
        reply = {"id": request["id"], "ok": False, "error": draw(st.text())}
    return request, reply


#: The frame ahead of the one under test on a mid-stream connection.
PRIOR = {"id": 0, "op": "retrieve", "key": "k", "service": None, "origin": None,
         "unreachable": [], "consistency": "current", "max_probes": None}


def inflated(body: bytes) -> bytes:
    """The packed payload a fresh stream's first body carries."""
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(body[1:]
                                                          + b"\x00\x00\xff\xff")


def listed(value):
    """``value`` as the wire gives it back: its tuples as lists."""
    if isinstance(value, (list, tuple)):
        return [listed(item) for item in value]
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    return value


def assert_round_trips(payload: dict, shape: bytes, keys=None) -> None:
    """``payload`` packs as ``shape`` and comes back equal, first on its
    connection and behind another frame."""
    body = wire.pack_payload(payload, keys=keys)
    assert inflated(body)[:1] == shape
    assert wire.unpack_payload(body, keys=keys) == listed(payload)
    stream, decoder = codec.DeflateStream(), codec.FrameDecoder()
    assert decoder.feed(codec.encode_frame(PRIOR, stream=stream)) == [PRIOR]
    frame = codec.encode_frame(payload, stream=stream, keys=keys)
    assert decoder.feed(frame, keys=keys) == [listed(payload)]


class TestRecords:
    @pytest.mark.parametrize("op", sorted(SHAPES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_request_of_every_op_round_trips_as_a_record(self, op, data):
        assert_round_trips(data.draw(requests(op)), b"Q")

    @given(exchange=exchanges())
    @settings(max_examples=300, deadline=None)
    def test_a_reply_round_trips_as_a_record(self, exchange):
        request, reply = exchange
        keys = codec.request_keys(request)
        assert_round_trips(reply, b"A" if reply["ok"] else b"E", keys)

    @pytest.mark.parametrize("request_id", UNSIGNED)
    def test_an_id_at_every_varint_width_travels(self, request_id):
        assert_round_trips({"id": request_id, "op": "ping"}, b"Q")
        assert_round_trips({"id": request_id, "ok": True, "result": "pong"}, b"A")
        assert_round_trips({"id": request_id, "ok": False, "error": "x"}, b"E")

    def test_the_served_frames_are_all_records(self, monkeypatch):
        """Every request a ``NetClient`` writes and every reply a
        ``NodeServer`` writes, over an in-memory link: the handshake, the
        data ops with and without their options, ``ping``, ``sync`` and an
        error reply."""
        written = []
        encode = codec.encode_frame

        def recording(payload, *, stream=None, keys=None):
            written.append((payload, keys))
            return encode(payload, stream=stream, keys=keys)

        monkeypatch.setattr(codec, "encode_frame", recording)
        net = MemoryNet(NodeServer(Cluster.build(peers=16, replicas=4, seed=5)))
        cluster = net.connect()
        with cluster.session() as session:
            session.insert("k", {"v": -1})
            session.retrieve("k")
            session.insert_many([("a", 1), (-7, {"n": 2})])
            session.retrieve_many(["a", -7, "missing"])
        service = cluster.service("ums")
        peer = cluster.info["peers"] - 1
        service.insert(2 ** 70, [1.5, None], origin=peer, unreachable={0, 2})
        service.retrieve(2 ** 70, consistency=Consistency.BEST_EFFORT, max_probes=2)
        service.retrieve_many(["k", 2 ** 70], consistency=Consistency.ANY, origin=peer)
        cluster.ping()
        cluster.sync_replicas(["a"])
        with pytest.raises(TransportError, match="unknown service"):
            cluster.client.request("insert", key="k", data={}, service="paxos")
        monkeypatch.undo()
        assert len(written) == 2 * 11
        for payload, keys in written:
            shape = b"Q" if "op" in payload else b"A" if payload["ok"] else b"E"
            assert_round_trips(payload, shape, keys)


# ----------------------------------------------------------- off-shape dicts
_not_ids = st.one_of(st.booleans(), st.integers(max_value=-1),
                     st.integers(min_value=2 ** 64), st.none(), st.text(max_size=4),
                     st.floats(allow_nan=False))


@st.composite
def off_shape(draw) -> dict:
    """A request or reply bent out of its record's shape."""
    request, reply = draw(exchanges())
    if draw(st.booleans()):
        bent = dict(request)
        required, optional = SHAPES[request["op"]]
        how = draw(st.sampled_from(["op", "extra", "missing", "id"]))
        if how == "op":
            bent["op"] = draw(st.one_of(
                st.text(max_size=12).filter(lambda op: op not in SHAPES),
                st.none(), _user_ints, st.lists(st.text(max_size=3), max_size=2)))
        elif how == "extra":
            extra = st.sampled_from(sorted(FIELDS - {"id", "op"} - set(required + optional)))
            bent[draw(st.one_of(extra, st.text(max_size=6).filter(
                lambda name: name not in FIELDS)))] = draw(_values)
        elif how == "missing":
            del bent[draw(st.sampled_from(["id", *required]))]
        else:
            bent["id"] = draw(_not_ids)
        return bent
    bent = dict(reply)
    how = draw(st.sampled_from(["ok", "extra", "missing", "id", "error"]))
    if how == "ok":
        bent["ok"] = draw(st.one_of(st.none(), st.integers(0, 1), st.text(max_size=3)))
    elif how == "extra":
        bent[draw(st.sampled_from(["result", "error", "op", "zz"]).filter(
            lambda name: name not in bent))] = draw(_values)
    elif how == "missing":
        del bent[draw(st.sampled_from(sorted(bent)))]
    elif how == "id":
        bent["id"] = draw(_not_ids)
    else:
        bent.pop("result", None)
        bent.update(ok=False, error=draw(st.one_of(st.none(), _user_ints,
                                                     st.lists(st.text(), max_size=2))))
    return bent


class TestOffShapeDicts:
    @given(payload=off_shape())
    @settings(max_examples=400, deadline=None)
    def test_an_off_shape_dict_round_trips_as_a_tagged_dict(self, payload):
        keys = codec.request_keys(payload) if "op" in payload else None
        assert_round_trips(payload, b"d", keys)
