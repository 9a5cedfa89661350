"""Which public callables get a span, and how spans become per-layer metrics.

A span name is ``<layer>.<what>``; the layers are the modules an operation
crosses: ``session`` (api.cluster), ``ums``, ``kts``, ``replication``
(core.*), ``network``, ``trace`` (dht.messages), ``overlay``, ``hashing``,
``storage`` (dht.*), ``codec`` (net.codec + net.wire), ``client``, ``server``
(net.*).  Wrappers go on the attribute each callable is looked up through
and come off again (:class:`bench.spans.Patches`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.spans import LayerTotals, Patches, Recorder
from bench.workloads import WARMUP_CALLS, Execution, Phase

__all__ = ["ROUTE_SHIFT", "install", "per_layer_metrics"]

#: ``overlay.route`` packs ``hops << ROUTE_SHIFT | retries`` into its value.
ROUTE_SHIFT = 32

Target = Tuple[str, Any, str]


def _targets(overlay_class: Optional[type]) -> List[Target]:
    """``(span name, owner, attribute)`` of every wrapped callable."""
    from repro.api.cluster import Session
    from repro.core.kts import KeyBasedTimestampService
    from repro.core.replication import ReplicationScheme
    from repro.core.ums import UpdateManagementService
    from repro.dht import hashing
    from repro.dht.messages import OperationTrace
    from repro.dht.network import DHTNetwork
    from repro.dht.storage import LocalStore
    from repro.net import codec
    from repro.net.client import NetClient, RemoteService
    from repro.net.server import NodeServer

    def methods(layer: str, owner: type, *names: str) -> List[Target]:
        return [(f"{layer}.{name}", owner, name) for name in names]

    calls = ("insert", "retrieve", "insert_many", "retrieve_many")
    targets = methods("session", Session, *calls)
    targets += methods("ums", UpdateManagementService, *calls)
    targets += methods("kts", KeyBasedTimestampService, "gen_ts", "last_ts",
                       "gen_ts_many", "last_ts_many", "peer_joined",
                       "peer_left", "peer_failed")
    targets += methods("replication", ReplicationScheme, "shuffled",
                       "replicated_requests", "fold_batch_acceptance",
                       "sync_replicas")
    targets += methods("network", DHTNetwork, "lookup", "put", "get",
                       "put_many", "get_many", "join_peer", "leave_peer",
                       "fail_peer", "sync_span", "new_trace",
                       "random_alive_peer")
    targets += methods("trace", OperationTrace, "record", "record_route",
                       "record_request_reply")
    if overlay_class is not None:
        targets += methods("overlay", overlay_class, "route", "responsible_for",
                           "next_responsible", "add_node", "remove_node")
    targets += [("hashing.point", hashing.PairwiseIndependentHash, "__call__"),
                ("hashing.points_many", hashing.PairwiseIndependentHash,
                 "points_many"),
                ("hashing.key_digest", hashing, "key_digest")]
    targets += methods("storage", LocalStore, "put", "get", "delete", "clear",
                       "values", "replicas_of", "entries_in_span",
                       "timestamp_summary", "entries_newer_than")
    targets += [("codec.encode_frame", codec, "encode_frame"),
                ("codec.pack_payload", codec, "pack_payload"),
                ("codec.unpack_payload", codec, "unpack_payload"),
                ("codec.decode_frames", codec.FrameDecoder, "feed"),
                ("codec.decode_frames", codec.FrameDecoder, "feed_with_formats"),
                ("codec.trace_dict", codec, "trace_to_dict"),
                ("codec.trace_dict", codec, "trace_from_dict")]
    for kind in ("insert", "retrieve", "batch_insert", "batch_retrieve"):
        for direction in ("to", "from"):
            targets.append(("codec.result_dict", codec,
                            f"{kind}_result_{direction}_dict"))
    targets += [("client.request", NetClient, "request")]
    targets += [("client.service_call", RemoteService, name) for name in calls]
    targets += [("server.handle_request", NodeServer, "handle_request")]
    return targets


# ----------------------------------------------------------- value/op hooks
def _route_value(buffer: Any, position: int, result: Any) -> None:
    buffer[position + 6] = (result.hops << ROUTE_SHIFT) | result.retries


def _accepted_value(buffer: Any, position: int, result: Any) -> None:
    buffer[position + 6] = 1 if result else 0


def _compressed_value(buffer: Any, position: int, result: bytes) -> None:
    from repro.net.wire import MARKER_COMPRESSED

    buffer[position + 6] = 1 if result[0] == MARKER_COMPRESSED else 0


_AFTER: Dict[str, Callable[..., None]] = {
    "overlay.route": _route_value,
    "storage.put": _accepted_value,
    "codec.pack_payload": _compressed_value,
}


def _server_hooks() -> Dict[str, Callable[..., None]]:
    """Hooks that stamp server spans with the wire request id.

    One closed-loop connection: the frame being reassembled belongs to the
    request after the last one handled; ``handle_request`` and the reply's
    ``encode_frame`` see the id in their payload.
    """
    state = {"last": -1}

    def handling(recorder: Recorder, args: tuple, kwargs: dict) -> None:
        state["last"] = recorder.op = args[1].get("id", -1)

    def decoding(recorder: Recorder, args: tuple, kwargs: dict) -> None:
        recorder.op = state["last"] + 1

    def encoding(recorder: Recorder, args: tuple, kwargs: dict) -> None:
        recorder.op = args[0].get("id", -1)

    return {"server.handle_request": handling, "codec.decode_frames": decoding,
            "codec.encode_frame": encoding}


def install(patches: Patches, recorder: Recorder,
            overlay_class: Optional[type], *, server_side: bool = False) -> None:
    """Wrap every target; ``patches.restore()`` takes the wrappers off again.

    ``overlay_class`` is the concrete class of the cluster's overlay (``None``
    in a client process, where no overlay runs).
    """
    before = _server_hooks() if server_side else {}
    for name, owner, attribute in _targets(overlay_class):
        patches.replace(owner, attribute,
                        lambda function, name=name: recorder.wrap(
                            name, function, before=before.get(name),
                            after=_AFTER.get(name)))


# ------------------------------------------------------------------ metrics
def _percentile(samples: List[float], share: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_layer_metrics(totals: LayerTotals, execution: Execution,
                      untraced: Phase, probes: Dict[str, float]) -> Dict[str, float]:
    """The value of every ``PER_LAYER`` metric for one traced run.

    ``execution`` is the traced run, ``untraced`` the phase of the untraced
    run it repeats the head of, ``probes`` the probe metrics measured apart.
    Times are norm: raw span nanoseconds times the traced phase's mean
    yardstick factor.  An op is one Session call; rates taken from the
    ``stats`` objects count the warm-up calls too.
    """
    traced, calls = execution.phase, execution.calls
    total_calls = WARMUP_CALLS + calls
    counters_after = execution.report["counters"]
    factor = sum(traced.factors) / len(traced.factors)

    def us_per_op(nanoseconds: float) -> float:
        return nanoseconds * factor / 1e3 / calls

    def mean_us(nanoseconds: float, count: int) -> float:
        return nanoseconds * factor / 1e3 / count if count else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def delta(group: str, counter: str) -> int:
        return (counters_after[group][counter]
                - execution.counters_before[group][counter])

    rates = sorted(traced.rates)
    untraced_prefix = untraced.busy_norm_s(len(traced.factors))
    retrieve_ms = untraced.pooled_norm_ms(untraced.retrieve_ns)
    insert_ms = untraced.pooled_norm_ms(untraced.insert_ns)
    verifier = execution.verifier
    out: Dict[str, float] = dict(probes)
    out.update({
        "env.cal_rounds_per_s": rates[len(rates) // 2],
        "env.trace_overhead_share": ratio(traced.busy_norm_s(), untraced_prefix) - 1.0,
        "env.layer_sum_share": ratio(totals.self_ns(),
                                     traced.busy_raw_ns() - sum(traced.churn_ns)),
        "session.self_us_per_op": us_per_op(totals.layer("session").self_ns),
        "session.retrieve_p95_norm_ms": _percentile(retrieve_ms, 0.95),
        "session.insert_p95_norm_ms": _percentile(insert_ms, 0.95),
        "session.retrieve_samples": float(len(retrieve_ms)),
        "session.insert_samples": float(len(insert_ms)),
        "ums.self_us_per_op": us_per_op(totals.layer("ums").self_ns),
        "ums.replicas_inspected_per_retrieve": ratio(
            verifier.replicas_inspected, verifier.retrieved_keys),
        "ums.replicas_written_share": ratio(
            verifier.replicas_written, verifier.replicas_attempted),
        "kts.self_us_per_op": us_per_op(totals.layer("kts").self_ns),
        "kts.indirect_inits_per_kop": 1e3 * ratio(
            delta("kts", "indirect_initializations"), total_calls),
        "kts.direct_transfers_per_kop": 1e3 * ratio(
            delta("kts", "direct_transfers"), total_calls),
        "replication.self_us_per_op": us_per_op(totals.layer("replication").self_ns),
        "replication.sync_round_ms": execution.sync_ms,
        "replication.sync_transfer_ratio": execution.sync_transfer_ratio,
        "network.calls_per_op": ratio(totals.layer("network").count, calls),
        "network.self_us_per_op": us_per_op(totals.layer("network").self_ns),
        "network.handover_entries_per_event": ratio(
            delta("network", "handover_entries"), execution.churn_events),
        "network.lost_entries_per_event": ratio(
            delta("network", "lost_entries"), execution.churn_events),
        "trace.records_per_op": ratio(totals.name("trace.record").count, calls),
        "trace.self_us_per_op": us_per_op(totals.layer("trace").self_ns),
        "hashing.calls_per_op": ratio(totals.layer("hashing").count, calls),
        "hashing.self_us_per_op": us_per_op(totals.layer("hashing").self_ns),
        "hashing.point_miss_share": ratio(
            totals.name("hashing.key_digest").count,
            totals.name("hashing.point").count),
        "storage.calls_per_op": ratio(totals.layer("storage").count, calls),
        "storage.self_us_per_op": us_per_op(totals.layer("storage").self_ns),
        "storage.entries": float(counters_after["storage_entries"]),
        "server.max_inflight_observed": float(execution.report["max_inflight_observed"]),
    })
    gen = [totals.name("kts.gen_ts"), totals.name("kts.gen_ts_many")]
    last = [totals.name("kts.last_ts"), totals.name("kts.last_ts_many")]
    out["kts.gen_ts_us"] = mean_us(sum(item.duration_ns for item in gen),
                                   sum(item.count for item in gen))
    out["kts.last_ts_us"] = mean_us(sum(item.duration_ns for item in last),
                                    sum(item.count for item in last))
    churn_ns = sum(totals.churn(name).duration_ns for name in
                   ("network.join_peer", "network.leave_peer", "network.fail_peer"))
    membership_ns = sum(totals.churn(name).duration_ns for name in
                        ("overlay.add_node", "overlay.remove_node"))
    out["network.churn_event_us"] = mean_us(churn_ns, execution.churn_events)
    out["overlay.membership_us_per_event"] = mean_us(membership_ns,
                                                     execution.churn_events)
    route = totals.name("overlay.route")
    out["overlay.route_calls_per_op"] = ratio(route.count, calls)
    out["overlay.route_self_us_per_op"] = us_per_op(route.self_ns)
    out["overlay.hops_per_route"] = ratio(route.value_sum >> ROUTE_SHIFT,
                                          route.valued)
    out["overlay.retries_per_route"] = ratio(
        route.value_sum & ((1 << ROUTE_SHIFT) - 1), route.valued)
    puts = totals.name("storage.put")
    out["storage.put_accept_share"] = ratio(puts.value_sum, puts.valued)
    frames = totals.name("codec.encode_frame")
    packed = totals.name("codec.pack_payload")
    out["codec.encode_us_per_frame"] = mean_us(frames.duration_ns, frames.count)
    out["codec.decode_us_per_frame"] = mean_us(
        totals.name("codec.decode_frames").duration_ns, frames.count)
    out["codec.result_dict_us_per_op"] = us_per_op(
        totals.name("codec.result_dict").self_ns
        + totals.name("codec.trace_dict").self_ns)
    out["codec.compressed_frame_share"] = ratio(packed.value_sum, packed.valued)
    transport = execution.transport
    requests = transport.get("requests", 0)
    out["codec.request_bytes_per_op"] = ratio(transport.get("bytes_sent", 0), requests)
    out["codec.reply_bytes_per_op"] = ratio(transport.get("bytes_received", 0), requests)
    out["client.retries_per_kop"] = 1e3 * ratio(transport.get("retries", 0), requests)
    out["client.timeouts_per_kop"] = 1e3 * ratio(transport.get("timeouts", 0), requests)
    request = totals.name("client.request")
    out["client.request_us_per_op"] = us_per_op(request.duration_ns)
    out["client.self_us_per_op"] = us_per_op(totals.layer("client").self_ns)
    # What is left of the request once the client's codec work and every
    # joined server span (decode, handle, encode) are taken out: sockets,
    # event-loop wake-ups and the thread hand-over on both sides.
    out["client.wire_wait_us_per_op"] = us_per_op(request.self_ns)
    handle = totals.name("server.handle_request")
    out["server.handle_us_per_op"] = us_per_op(handle.duration_ns)
    out["server.self_us_per_op"] = us_per_op(handle.self_ns)
    return out
