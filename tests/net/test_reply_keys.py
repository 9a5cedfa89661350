"""Replies leave out the keys their request named (repro.net.wire/codec).

A result record sets ``_OWN_KEY`` instead of packing its key when that key is
the request's key at the same position: the same object, or an equal ``str``
or ``int`` of the same type.  The reply-keys oracle drives mixed point and
batch requests through one :class:`~repro.net.server.NodeServer` connection
and the same requests through an in-process twin of the served cluster, and
checks each decoded reply against the twin's result, field by field.  It
decodes with one fresh marker object per request key: a record that comes
back holding a marker left its key out, so the oracle sees exactly which
keys each frame omitted — and requires them to be the ones the rule allows.
A test-double service answers with keys that differ from the request's in
object, type or value; those keys must travel.
"""

from __future__ import annotations

import dataclasses
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.api.results import BatchInsertResult, BatchRetrieveResult
from repro.core.timestamps import Timestamp
from repro.net import codec
from repro.net.client import TransportError, connect
from repro.net.server import NodeServer, ServerThread

#: The served cluster and its in-process twin: same build, same seed.
BUILD = {"peers": 16, "replicas": 4, "seed": 23}

#: The service name that reaches the test double.
DOUBLE = "double"

BATCHES = (BatchInsertResult, BatchRetrieveResult)


def may_stand_for(own, key) -> bool:
    """The rule a record's key is left out by: the receiver's ``key`` is
    ``own`` itself, or an equal ``str``/``int`` of exactly its type."""
    return own is key or (type(own) is type(key) and type(key) in (str, int)
                          and own == key)


def twisted(key):
    """The double's answer key for ``key``: the key itself, an equal copy,
    an equal value of another type, or another value."""
    if isinstance(key, int):
        return (key, int(str(key)), float(key), key + 1)[key % 4]
    return (key, "".join(list(key)), key + "!", [key])[len(key) % 4]


def records(result) -> tuple:
    """The per-key records of ``result``, in request order."""
    return result.results if isinstance(result, BATCHES) else (result,)


def rekeyed(result, rekey):
    """``result`` with the key of each of its records replaced by ``rekey``."""
    if isinstance(result, BATCHES):
        return dataclasses.replace(
            result, results=tuple(dataclasses.replace(item, key=rekey(item.key))
                                  for item in result.results))
    return dataclasses.replace(result, key=rekey(result.key))


class DoubleServer(NodeServer):
    """Serves the real cluster; a request for :data:`DOUBLE` is answered with
    the real result's keys :func:`twisted`."""

    def handle_request(self, request):
        if request.get("service") != DOUBLE:
            return super().handle_request(request)
        reply = super().handle_request({**request, "service": None})
        if reply["ok"]:
            reply["result"] = rekeyed(reply["result"], twisted)
        return reply


@pytest.fixture(scope="module", params=[32, 64, 160], ids=lambda bits: f"bits{bits}")
def link(request):
    """One raw connection to a served cluster of ``bits``-bit ids, and the
    in-process twin of that cluster.

    Module-scoped: every example sends each request to both, in the same
    order, so the two stay in step from one example to the next.
    """
    bits = request.param
    server = DoubleServer(Cluster.build(**BUILD, bits=bits))
    thread = ServerThread(server).start()
    sock = socket.create_connection(server.tcp_address)
    yield {"bits": bits, "twin": Cluster.build(**BUILD, bits=bits),
           "sock": sock, "stream": codec.DeflateStream(),
           "decoder": codec.FrameDecoder(), "next_id": 0}
    sock.close()
    thread.stop()


def _key_pools(bits: int):
    """1–4 keys to draw a step's keys from, so batches repeat keys: strings,
    and ints across the id width (its edges included)."""
    ints = st.one_of(st.integers(min_value=0, max_value=2 ** bits - 1),
                     st.sampled_from([0, 2 ** (bits - 1), 2 ** bits - 1]))
    return st.lists(st.one_of(st.text(max_size=6), ints), min_size=1, max_size=4)


@st.composite
def _steps(draw, bits: int):
    """Steps ``(op, service, keys, data)`` over one pool of keys."""
    pool = draw(_key_pools(bits))
    keys = st.sampled_from(pool)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        op = draw(st.sampled_from(["insert", "retrieve", "insert_many",
                                   "retrieve_many"]))
        count = 1 if op in ("insert", "retrieve") else draw(
            st.integers(min_value=0, max_value=5))
        steps.append((op, draw(st.sampled_from([None, DOUBLE])),
                      [draw(keys) for _ in range(count)],
                      draw(st.integers(min_value=-9, max_value=9))))
    return steps


def _request(link, op, service, keys, data) -> dict:
    request = {"id": link["next_id"], "op": op, "service": service}
    link["next_id"] += 1
    if op == "insert_many":
        request["items"] = [[key, {"v": data, "at": index}]
                            for index, key in enumerate(keys)]
    elif op == "retrieve_many":
        request["keys"] = keys
    else:
        request["key"] = keys[0]
        if op == "insert":
            request["data"] = {"v": data}
    return request


def _in_process(twin: Cluster, request: dict):
    """What the served cluster computes for ``request``, in process."""
    service, op = twin.service(), request["op"]
    if op == "insert":
        result = service.insert(request["key"], request["data"])
    elif op == "retrieve":
        result = service.retrieve(request["key"])
    elif op == "insert_many":
        result = service.insert_many([tuple(item) for item in request["items"]])
    else:
        result = service.retrieve_many(request["keys"])
    return rekeyed(result, twisted) if request["service"] == DOUBLE else result


def _exchange(link, request: dict, markers: list):
    """Send ``request`` on the raw link; its reply, decoded with ``markers``
    standing in for the request's keys."""
    link["sock"].sendall(codec.encode_frame(request, stream=link["stream"]))
    replies: list = []
    while not replies:
        chunk = link["sock"].recv(256 * 1024)
        assert chunk, "server closed the link"
        replies = link["decoder"].feed(chunk, keys=markers)
    (reply,) = replies
    assert reply["id"] == request["id"] and reply["ok"], reply
    return reply["result"]


def _restored(record, back: dict):
    """``record`` with each marker (in its key or a timestamp's) replaced by
    the request key it stood for."""
    def real(key):
        return back.get(id(key), key)

    fields = {"key": real(record.key)}
    for name in ("timestamp", "latest_timestamp"):
        stamp = getattr(record, name, None)
        if isinstance(stamp, Timestamp):
            fields[name] = Timestamp(key=real(stamp.key), value=stamp.value)
    return dataclasses.replace(record, **fields)


def _same_record(got, want) -> None:
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        assert mine == theirs, field.name
        assert type(mine) is type(theirs), field.name
    for name in ("timestamp", "latest_timestamp"):
        stamp = getattr(want, name, None)
        if isinstance(stamp, Timestamp):
            assert type(getattr(got, name).key) is type(stamp.key), name


class TestReplyKeysOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_reply_is_the_in_process_result_and_omits_what_the_rule_allows(
            self, link, data):
        for op, service, keys, value in data.draw(_steps(link["bits"])):
            request = _request(link, op, service, keys, value)
            assert list(codec.request_keys(request)) == keys
            markers = [object() for _ in keys]
            got = _exchange(link, request, markers)
            want = _in_process(link["twin"], request)
            assert type(got) is type(want)
            # Exactly the keys the rule allows came back as their markers.
            omitted = [record.key is marker
                       for record, marker in zip(records(got), markers)]
            answers = [twisted(key) if service == DOUBLE else key for key in keys]
            assert omitted == [may_stand_for(answer, key)
                               for answer, key in zip(answers, keys)]
            back = {id(marker): key for marker, key in zip(markers, keys)}
            got_records = [_restored(record, back) for record in records(got)]
            assert len(got_records) == len(records(want))
            for mine, theirs in zip(got_records, records(want)):
                _same_record(mine, theirs)
            if isinstance(want, BATCHES):
                assert got.trace == want.trace
                assert all(record.trace is got.trace for record in records(got))
            if isinstance(want, BatchRetrieveResult):
                assert got.consistency == want.consistency


class TestTheClientPath:
    def test_a_remote_service_gets_the_keys_its_server_answered(self, serve):
        """Through :func:`connect`: the real service's records leave every key
        out and come back holding the caller's own key objects; the double's
        come back holding the keys it answered."""
        keys = ["a", "bb", 6, 7, 2 ** 70, "a"]
        server = serve(DoubleServer(**BUILD))
        with connect(server.tcp_address) as cluster:
            for name in (None, DOUBLE):
                service = cluster.service(name)
                written = service.insert_many([(key, 1) for key in keys])
                read = service.retrieve_many(keys)
                single = service.retrieve(keys[1])
                want = [twisted(key) if name else key for key in keys]
                for batch in (written, read):
                    assert [record.key for record in batch.results] == want
                    assert [type(record.key) for record in batch.results] == \
                        [type(key) for key in want]
                assert single.key == want[1]
                if name is None:
                    assert all(record.key is key
                               for record, key in zip(read.results, keys))

    def test_a_reply_that_does_not_match_its_request_is_refused(self, serve):
        """A batch whose record count is not the request's key count is
        refused at encode: the client gets a ``CodecError`` reply, not a
        guessed key, and the link carries on."""

        class Short(NodeServer):
            def handle_request(self, request):
                reply = super().handle_request(request)
                if reply["ok"] and isinstance(reply["result"], BATCHES):
                    reply["result"] = dataclasses.replace(
                        reply["result"], results=reply["result"].results[:-1])
                return reply

        server = serve(Short(**BUILD))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                with pytest.raises(TransportError,
                                   match="CodecError: 1 result records answer "
                                         "a request for 2 keys"):
                    session.retrieve_many(["a", "b"])
                assert session.insert("a", 1).key == "a"
            assert cluster.client.counters.reconnects == 0
