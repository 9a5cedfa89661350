"""The names, units and bounds of every metric the benchmark emits.

``BENCHMARK.json`` at the repo root repeats these tables for the driver;
``bench/tests/test_bench_smoke.py`` keeps the two equal.  Later issues refer
to metrics by these names, so renaming one is a ledger break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "Metric", "OVERLAYS"]


@dataclass(frozen=True)
class Metric:
    """One emitted metric.  ``bound`` is set on end-to-end metrics only."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None

    def as_json(self) -> Dict[str, object]:
        """The entry ``BENCHMARK.json`` carries for this metric."""
        entry: Dict[str, object] = {"name": self.name, "unit": self.unit,
                                    "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


#: What a user of the system sees, per workload.  ``bound`` is the share of
#: the parent's median by which the metric may worsen.  The contract holds
#: one bound per metric, so each carries the figure of its noisiest
#: workload: timings 0.20 (over ten seeds the interquartile spread is 3-6 %
#: on most workload x metric pairs and reached 11 % on ``tcp_batch``; the
#: driver refuses a benchmark whose spread exceeds its bound).  The
#: counter-derived metrics repeat *exactly* for one seed; their bounds only
#: absorb the difference between the op streams of different seeds (2 % on
#: ``sim_churn``, where the seed also picks which peers fail).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("norm_key_ops_per_s", "1/s", "higher", 0.2),
    Metric("retrieve_p50_norm_ms", "ms", "lower", 0.2),
    Metric("insert_p50_norm_ms", "ms", "lower", 0.2),
    Metric("messages_per_key_op", "count", "lower", 0.07),
    Metric("wire_bytes_per_key_op", "B", "lower", 0.07),
    Metric("current_rate", "share", "higher", 0.01),
    Metric("ok_op_share", "share", "higher", 0.001),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

#: The overlays probed (at the workload population) in every traced run.
OVERLAYS: Tuple[str, ...] = ("chord", "kademlia", "can")


def _per_layer() -> Tuple[Metric, ...]:
    low, high = "lower", "higher"
    table = [
        # environment of the run
        ("env.cal_rounds_per_s", "1/s", high),
        ("env.echo_rtt_us", "us", low),
        ("env.trace_overhead_share", "share", low),
        ("env.layer_sum_share", "share", high),
        # api.cluster
        ("session.self_us_per_op", "us", low),
        ("session.retrieve_p95_norm_ms", "ms", low),
        ("session.insert_p95_norm_ms", "ms", low),
        ("session.retrieve_samples", "count", high),
        ("session.insert_samples", "count", high),
        # core.ums
        ("ums.self_us_per_op", "us", low),
        ("ums.replicas_inspected_per_retrieve", "count", low),
        ("ums.replicas_written_share", "share", high),
        # core.kts
        ("kts.gen_ts_us", "us", low),
        ("kts.last_ts_us", "us", low),
        ("kts.self_us_per_op", "us", low),
        ("kts.indirect_inits_per_kop", "count", low),
        ("kts.direct_transfers_per_kop", "count", low),
        # core.replication
        ("replication.self_us_per_op", "us", low),
        ("replication.sync_round_ms", "ms", low),
        ("replication.sync_transfer_ratio", "share", low),
        # dht.network
        ("network.calls_per_op", "count", low),
        ("network.self_us_per_op", "us", low),
        ("network.churn_event_us", "us", low),
        ("network.handover_entries_per_event", "count", low),
        ("network.lost_entries_per_event", "count", low),
        # dht.messages
        ("trace.records_per_op", "count", low),
        ("trace.self_us_per_op", "us", low),
        # dht overlays
        ("overlay.route_calls_per_op", "count", low),
        ("overlay.route_self_us_per_op", "us", low),
        ("overlay.hops_per_route", "count", low),
        ("overlay.retries_per_route", "count", low),
        ("overlay.membership_us_per_event", "us", low),
    ]
    for overlay in OVERLAYS:
        table += [(f"overlay.{overlay}.build_s", "s", low),
                  (f"overlay.{overlay}.route_us", "us", low),
                  (f"overlay.{overlay}.churn_event_us", "us", low)]
    table += [
        # dht.hashing
        ("hashing.calls_per_op", "count", low),
        ("hashing.self_us_per_op", "us", low),
        ("hashing.point_miss_share", "share", low),
        ("hashing.point_warm_us", "us", low),
        ("hashing.point_cold_us", "us", low),
        # dht.storage
        ("storage.calls_per_op", "count", low),
        ("storage.self_us_per_op", "us", low),
        ("storage.put_accept_share", "share", high),
        ("storage.entries", "count", low),
        # net.codec + net.wire
        ("codec.encode_us_per_frame", "us", low),
        ("codec.decode_us_per_frame", "us", low),
        ("codec.result_dict_us_per_op", "us", low),
        ("codec.request_bytes_per_op", "B", low),
        ("codec.reply_bytes_per_op", "B", low),
        ("codec.compressed_frame_share", "share", high),
        # net.client
        ("client.request_us_per_op", "us", low),
        ("client.self_us_per_op", "us", low),
        ("client.wire_wait_us_per_op", "us", low),
        ("client.retries_per_kop", "count", low),
        ("client.timeouts_per_kop", "count", low),
        # net.server
        ("server.handle_us_per_op", "us", low),
        ("server.self_us_per_op", "us", low),
        ("server.max_inflight_observed", "count", low),
    ]
    return tuple(Metric(name, unit, better) for name, unit, better in table)


#: One traced run emits all of these (0 where a layer does no work on the
#: workload, e.g. every ``codec.*`` on the in-process workloads).  An "op" is
#: one Session call - one 16-key batch on ``tcp_batch``.
PER_LAYER: Tuple[Metric, ...] = _per_layer()
