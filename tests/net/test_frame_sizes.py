"""Golden frame sizes: the exact bytes of the protocol's typical frames.

Deterministic payloads shaped like the protocol's real traffic (single ops,
batched ops, delta-sync entry lists, the point replies that dominate a point
workload, and the result records of 16-key batch replies, each with its
trace's summary and leaving out the keys its request named) are encoded with
:mod:`repro.net.codec`.  Frame sizes are
pure functions of the payloads and the seeded sequence, so they are pinned
exactly: a codec change that moves one byte fails here.

A frame is the next piece of its connection's deflate stream, so its size
depends on the frames before it.  The plain rows measure each payload as
the first frame of a fresh stream, and the ``*_mid_stream`` rows the last
request and reply of a seeded connection, where every earlier frame is
history the stream can refer back to.  ``point_replies_warm`` adds up the
last replies of a longer connection, where the stream has long seen every
key, the record layout and summaries like theirs.
"""

from __future__ import annotations

import itertools
import random

from repro.api.cluster import Cluster
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    InsertResult,
    RetrieveResult,
)
from repro.core.timestamps import Timestamp
from repro.dht.messages import MessageKind, TraceSummary
from repro.net import codec

#: Items per bulk payload, operations on the mid-stream connection, and on
#: the warm one with the replies of its last ``WARM_TAIL`` operations pinned.
BATCH = 64
#: Keys per batch reply row (``batch_*_reply``).
BATCH_REPLY_KEYS = 16
MID_STREAM_OPS = 20
WARM_OPS, WARM_TAIL = 200, 20

FRAME_BYTES = {
    "batch_insert_reply": 100,
    "batch_retrieve_reply": 443,
    "insert_many": 1212,
    "insert_reply": 43,
    "ping": 26,
    "point_replies_warm": 312,
    "retrieve": 59,
    "retrieve_many_reply": 1860,
    "retrieve_mid_stream": 11,
    "retrieve_reply": 81,
    "retrieve_reply_mid_stream": 16,
    "sync_delta": 1986,
}


def bulk_items(count: int, *, seed: int = 2007) -> list:
    """A deterministic batch of (key, data) pairs shaped like app traffic."""
    return [[f"key-{(seed + index) % 97:03d}",
             {"op": index, "payload": f"value-{index:04d}" * 4,
              "tags": [f"t{index % 7}", f"t{index % 11}"],
              "meta": {"origin": index % 53, "attempt": 1}}]
            for index in range(count)]


def point_trace(routes: list) -> TraceSummary:
    """A hand-built trace: one lookup per ``(hops, request, reply)`` route.

    Peer ids are a fixed multiplicative sequence over the 32-bit id space,
    as a routed trace records them without any RNG.
    """
    ids = ((2654435761 * index) % (2 ** 32) for index in itertools.count(1))
    trace = TraceSummary(0, 0, 0, 128)
    for hops, request, reply in routes:
        path = [next(ids) for _ in range(hops + 1)]
        trace.record_route(path)
        trace.record_exchange((request, reply), path[0], path[-1])
    return trace


#: The keys of the 16-key batch requests the ``batch_*_reply`` rows answer.
BATCH_KEYS = tuple(key for key, _data in bulk_items(BATCH_REPLY_KEYS))

#: The keys of the request each reply row answers: its records leave them out.
REPLY_KEYS = {"retrieve_reply": ("key-042",), "insert_reply": ("key-042",),
              "batch_retrieve_reply": BATCH_KEYS, "batch_insert_reply": BATCH_KEYS}


def point_replies() -> dict:
    """Single-key replies carrying a point workload's mean traces.

    A retrieve averages 16 messages (the KTS ``last_ts`` route plus one
    replica probe) and an insert 86 (``gen_ts`` plus ten replica writes,
    here with two routing retries, one of them timed out).
    """
    retrieve_trace = point_trace([
        (6, MessageKind.LAST_TS_REQUEST, MessageKind.LAST_TS_REPLY),
        (6, MessageKind.GET_REQUEST, MessageKind.GET_REPLY)])
    insert_trace = point_trace(
        [(6, MessageKind.TSR, MessageKind.TSR_REPLY)]
        + [(6 if replica < 6 else 5, MessageKind.PUT_REQUEST, MessageKind.PUT_ACK)
           for replica in range(10)])
    insert_trace.record_route([], retries=2, timeouts=1)
    assert (retrieve_trace.message_count, insert_trace.message_count) == (16, 86)
    stamp = Timestamp(key="key-042", value=17)
    retrieve = RetrieveResult(
        key="key-042", data={"op": 17, "payload": "value-0017" * 4},
        found=True, is_current=True, replicas_inspected=1,
        trace=retrieve_trace, timestamp=stamp, latest_timestamp=stamp,
        service="ums")
    insert = InsertResult(key="key-042", replicas_written=10, replicas_attempted=10,
                          trace=insert_trace, timestamp=stamp, service="ums")
    return {
        "retrieve_reply": {"id": 19, "ok": True, "result": retrieve},
        "insert_reply": {"id": 23, "ok": True, "result": insert},
    }


def batch_replies() -> dict:
    """The replies of a 16-key ``retrieve_many`` and ``insert_many``: result
    records sharing one trace, each leaving out the key its request named.

    The shared trace routes once per key, to the KTS and then to a replica
    for a read, to the KTS and then to ten replicas for a write.
    """
    items = bulk_items(BATCH_REPLY_KEYS)
    stamps = [Timestamp(key=key, value=index + 1) for index, (key, _data) in enumerate(items)]
    read_trace = point_trace(
        [(6, MessageKind.LAST_TS_REQUEST, MessageKind.LAST_TS_REPLY),
         (6, MessageKind.GET_REQUEST, MessageKind.GET_REPLY)] * BATCH_REPLY_KEYS)
    write_trace = point_trace(
        ([(6, MessageKind.TSR, MessageKind.TSR_REPLY)]
         + [(6, MessageKind.PUT_REQUEST, MessageKind.PUT_ACK)] * 10) * BATCH_REPLY_KEYS)
    reads = BatchRetrieveResult(results=tuple(
        RetrieveResult(key=key, data=data, found=True, is_current=True,
                       replicas_inspected=1, trace=read_trace, timestamp=stamp,
                       latest_timestamp=stamp, service="ums")
        for (key, data), stamp in zip(items, stamps)), trace=read_trace)
    writes = BatchInsertResult(results=tuple(
        InsertResult(key=key, replicas_written=10, replicas_attempted=10,
                     trace=write_trace, timestamp=stamp, service="ums")
        for (key, _data), stamp in zip(items, stamps)), trace=write_trace)
    return {"batch_retrieve_reply": {"id": 29, "ok": True, "result": reads},
            "batch_insert_reply": {"id": 31, "ok": True, "result": writes}}


def payloads() -> dict:
    """The first-frame payload shapes, keyed by row name."""
    items = bulk_items(BATCH)
    return {
        **point_replies(),
        **batch_replies(),
        "ping": {"id": 7, "op": "ping", "service": None},
        "retrieve": {"id": 11, "op": "retrieve", "key": "key-042",
                     "service": None, "origin": None, "unreachable": [],
                     "consistency": "current", "max_probes": None},
        "insert_many": {"id": 13, "op": "insert_many", "items": items,
                        "service": None, "origin": None, "unreachable": []},
        "retrieve_many_reply": {
            "id": 13, "ok": True,
            "result": {"results": [
                {"key": key, "found": True, "is_current": True,
                 "data": data, "replicas_inspected": 2,
                 "timestamp": {"__repro.timestamp__": True, "key": key, "value": index}}
                for index, (key, data) in enumerate(items)]}},
        "sync_delta": {
            "id": 17, "ok": True,
            "result": {"entries": [
                {"key": key, "hash_name": f"hr-{index % 10}",
                 "data": data, "version": None,
                 "timestamp": {"__repro.timestamp__": True, "key": key, "value": index}}
                for index, (key, data) in enumerate(items)]}},
    }


def connection_sizes(ops: int, *, seed: int = 2007) -> list:
    """Frame sizes of each request and reply of a seeded connection.

    ``ops`` operations of an 80/20 retrieve/insert mix (the last one a
    retrieve) over 16 pre-inserted keys run on an in-process cluster of 64
    peers; requests and replies each go through one deflate stream, as a
    client's and a server's connection send them.
    """
    rng = random.Random(seed)
    cluster = Cluster.build(peers=64, replicas=10, seed=seed)
    requests, replies = codec.DeflateStream(), codec.DeflateStream()
    sizes = []
    with cluster.session() as session:
        for index in range(16):
            session.insert(f"key-{index:03d}", {"op": -index})
        for index in range(ops):
            key = f"key-{rng.randrange(16):03d}"
            request = {"id": index, "key": key, "service": None,
                       "origin": None, "unreachable": []}
            if index == ops - 1 or rng.random() < 0.8:
                request.update(op="retrieve", consistency="current", max_probes=None)
                result = session.retrieve(key)
            else:
                data = {"op": index, "payload": f"value-{index:04d}" * 4}
                request.update(op="insert", data=data)
                result = session.insert(key, data)
            reply = {"id": index, "ok": True, "result": result}
            sizes.append((len(codec.encode_frame(request, stream=requests)),
                          len(codec.encode_frame(reply, stream=replies,
                                                 keys=(key,)))))
    return sizes


def mid_stream_sizes() -> dict:
    """The last request and reply of a short connection, and the last
    replies of a warm one."""
    request, reply = connection_sizes(MID_STREAM_OPS)[-1]
    warm = connection_sizes(WARM_OPS)
    return {"retrieve_mid_stream": request, "retrieve_reply_mid_stream": reply,
            "point_replies_warm": sum(reply for _request, reply in warm[-WARM_TAIL:])}


def test_every_frame_size_is_pinned():
    assert codec.MAX_FRAME_HEADER_BYTES == 4
    sizes = {name: codec.frame_size(payload, keys=REPLY_KEYS.get(name))
             for name, payload in payloads().items()}
    sizes.update(mid_stream_sizes())
    assert sizes == FRAME_BYTES
