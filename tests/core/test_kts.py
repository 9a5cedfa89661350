"""Unit tests for the Key-based Timestamping Service (Section 4)."""

from __future__ import annotations

import pytest
from trace_columns import record_columns

from repro.api import Cluster
from repro.core.kts import CounterInitialization, KeyBasedTimestampService
from repro.core.replication import ReplicationScheme
from repro.core.timestamps import Timestamp
from repro.dht.hashing import HashFamily
from repro.dht.messages import MessageKind
from repro.dht.network import DHTNetwork


def build_kts(num_peers=24, num_replicas=5, initialization=CounterInitialization.DIRECT,
              seed=5, **kwargs):
    network = DHTNetwork.build(num_peers, seed=seed)
    family = HashFamily(bits=32, seed=seed + 1)
    replication = ReplicationScheme(family.sample_many(num_replicas))
    kts = KeyBasedTimestampService(network, replication, ts_hash=family.sample("h-ts"),
                                   initialization=initialization, seed=seed + 2, **kwargs)
    return network, replication, kts


class TestGenTs:
    def test_timestamps_start_at_one_and_increase(self):
        _, _, kts = build_kts()
        assert kts.gen_ts("k") == Timestamp("k", 1)
        assert kts.gen_ts("k") == Timestamp("k", 2)
        assert kts.gen_ts("k") == Timestamp("k", 3)

    def test_monotonicity_over_many_generations(self):
        _, _, kts = build_kts()
        values = [kts.gen_ts("k").value for _ in range(50)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_independent_keys_have_independent_sequences(self):
        _, _, kts = build_kts()
        kts.gen_ts("a")
        kts.gen_ts("a")
        assert kts.gen_ts("b").value == 1

    def test_counter_lives_at_the_responsible_of_timestamping(self):
        _, _, kts = build_kts()
        kts.gen_ts("k")
        responsible = kts.responsible_of_timestamping("k")
        assert [counter.key for counter in kts.counters_at(responsible)] == ["k"]

    def test_gen_ts_records_routing_and_tsr_messages(self):
        network, _, kts = build_kts()
        columns = record_columns(network)
        kts.gen_ts("k", trace=network.new_trace())
        kinds = [message.kind for message in columns]
        assert MessageKind.TSR in kinds
        assert MessageKind.TSR_REPLY in kinds

    def test_stats_count_generated_timestamps(self):
        _, _, kts = build_kts()
        for _ in range(4):
            kts.gen_ts("k")
        assert kts.stats.timestamps_generated == 4


class TestLastTs:
    def test_last_ts_is_none_before_any_generation(self):
        _, _, kts = build_kts()
        assert kts.last_ts("never-seen") is None

    def test_last_ts_returns_the_latest_generated(self):
        _, _, kts = build_kts()
        kts.gen_ts("k")
        latest = kts.gen_ts("k")
        assert kts.last_ts("k") == latest

    def test_last_ts_does_not_advance_the_counter(self):
        _, _, kts = build_kts()
        kts.gen_ts("k")
        kts.last_ts("k")
        kts.last_ts("k")
        assert kts.gen_ts("k").value == 2

    def test_last_ts_records_request_messages(self):
        network, _, kts = build_kts()
        kts.gen_ts("k")
        columns = record_columns(network)
        kts.last_ts("k", trace=network.new_trace())
        kinds = [message.kind for message in columns]
        assert MessageKind.LAST_TS_REQUEST in kinds
        assert MessageKind.LAST_TS_REPLY in kinds
        assert kts.stats.last_ts_requests == 1


class TestDirectInitialization:
    def test_counters_transfer_on_normal_leave(self):
        network, _, kts = build_kts()
        latest = kts.gen_ts("k")
        responsible = kts.responsible_of_timestamping("k")
        network.leave_peer(responsible)
        new_responsible = kts.responsible_of_timestamping("k")
        assert new_responsible != responsible
        # The new responsible received the counter directly: the next timestamp
        # continues the sequence without touching the replicas.
        assert kts.stats.direct_transfers >= 1
        assert kts.gen_ts("k").value == latest.value + 1
        assert kts.stats.indirect_initializations == 0

    def test_counters_transfer_on_displacing_join(self):
        network, _, kts = build_kts(num_peers=8)
        latest = kts.gen_ts("k")
        # Join many peers so that, with high probability, one of them takes
        # over the timestamping responsibility for "k".
        before = kts.responsible_of_timestamping("k")
        for _ in range(200):
            network.join_peer()
        after = kts.responsible_of_timestamping("k")
        assert kts.gen_ts("k").value == latest.value + 1
        if after != before:
            assert kts.stats.direct_transfers >= 1

    def test_leave_of_unrelated_peer_does_not_transfer(self):
        network, _, kts = build_kts()
        kts.gen_ts("k")
        responsible = kts.responsible_of_timestamping("k")
        other = next(peer for peer in network.alive_peer_ids() if peer != responsible)
        before = kts.stats.direct_transfers
        network.leave_peer(other)
        assert kts.stats.direct_transfers == before


class TestIndirectInitialization:
    def test_failure_falls_back_to_replica_timestamps(self):
        network, replication, kts = build_kts()
        latest = kts.gen_ts("k")
        # Commit the timestamp with the replicas, as UMS.insert does.
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        responsible = kts.responsible_of_timestamping("k")
        network.fail_peer(responsible)
        regenerated = kts.gen_ts("k")
        assert regenerated.value > latest.value
        assert kts.stats.indirect_initializations >= 1

    def test_indirect_mode_never_transfers_counters(self):
        network, replication, kts = build_kts(initialization=CounterInitialization.INDIRECT)
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        network.leave_peer(kts.responsible_of_timestamping("k"))
        assert kts.stats.direct_transfers == 0
        assert kts.gen_ts("k").value > latest.value

    def test_indirect_initialization_costs_replica_reads(self):
        network, replication, kts = build_kts(initialization=CounterInitialization.INDIRECT)
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        network.leave_peer(kts.responsible_of_timestamping("k"))
        columns = record_columns(network)
        kts.last_ts("k", trace=network.new_trace())
        kinds = [message.kind for message in columns]
        assert kinds.count(MessageKind.GET_REQUEST) == replication.factor

    def test_last_ts_after_indirect_init_reports_committed_value(self):
        network, replication, kts = build_kts()
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        network.fail_peer(kts.responsible_of_timestamping("k"))
        reported = kts.last_ts("k")
        assert reported is not None
        assert reported.value == latest.value

    def test_failure_without_committed_replicas_restarts_counter(self):
        network, _, kts = build_kts()
        kts.gen_ts("k")  # never committed to the DHT
        network.fail_peer(kts.responsible_of_timestamping("k"))
        # The paper acknowledges this corner case: the indirect algorithm
        # cannot see the uncommitted timestamp, so last_ts has nothing to report.
        assert kts.last_ts("k") is None

    def test_safety_margin_skips_values_after_indirect_init(self):
        network, replication, kts = build_kts(indirect_safety_margin=3)
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        network.fail_peer(kts.responsible_of_timestamping("k"))
        assert kts.gen_ts("k").value == latest.value + 3 + 1


def messages_of_the_first_gen_ts_after_departure(initialization, *, fail):
    """Messages of the first ``gen_ts`` after the responsible of timestamping
    of an inserted key leaves (or fails) and one peer joins."""
    cluster = Cluster.build(peers=128, replicas=10, seed=5, initialization=initialization)
    cluster.service("ums").insert("k", "v0")
    responsible = cluster.kts.responsible_of_timestamping("k")
    (cluster.network.fail_peer if fail else cluster.network.leave_peer)(responsible)
    cluster.network.join_peer()
    trace = cluster.network.new_trace()
    cluster.kts.gen_ts("k", trace=trace)
    return trace.message_count


class TestCounterInitializationAblation:
    """The paper's own ablation: what the two modes cost right after the
    responsible of timestamping changes."""

    def test_direct_transfer_makes_post_leave_timestamping_cheap(self):
        direct = messages_of_the_first_gen_ts_after_departure(
            CounterInitialization.DIRECT, fail=False)
        indirect = messages_of_the_first_gen_ts_after_departure(
            CounterInitialization.INDIRECT, fail=False)
        # The indirect mode reads all |Hr| replicas.
        assert indirect > 2 * direct

    def test_both_modes_pay_indirect_initialisation_after_a_failure(self):
        direct = messages_of_the_first_gen_ts_after_departure(
            CounterInitialization.DIRECT, fail=True)
        indirect = messages_of_the_first_gen_ts_after_departure(
            CounterInitialization.INDIRECT, fail=True)
        # A failed peer transfers nothing, so the costs are of one order
        # (Figure 11's convergence at high failure rates).
        assert direct > 0.5 * indirect


class TestRluMode:
    def test_rlu_counter_is_dropped_after_each_generation(self):
        network, replication, kts = build_kts(dht_is_rla=False)
        first = kts.gen_ts("k")
        responsible = kts.responsible_of_timestamping("k")
        assert kts.counters_at(responsible) == []
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=first)
        second = kts.gen_ts("k")
        assert second.value > first.value

    def test_rla_counter_is_kept(self):
        _, _, kts = build_kts(dht_is_rla=True)
        kts.gen_ts("k")
        responsible = kts.responsible_of_timestamping("k")
        assert len(kts.counters_at(responsible)) == 1


class TestRepairStrategies:
    def test_recover_raises_a_low_counter(self):
        network, replication, kts = build_kts()
        latest = kts.gen_ts("k")
        network.fail_peer(kts.responsible_of_timestamping("k"))
        # The replicas never saw the timestamp, so the new responsible starts low.
        assert kts.last_ts("k") is None
        # The restarted peer reports its old counter value (the recovery strategy).
        assert kts.recover("k", latest.value) is True
        assert kts.last_ts("k").value == latest.value
        assert kts.gen_ts("k").value == latest.value + 1
        assert kts.stats.corrections >= 1

    def test_recover_ignores_stale_reports(self):
        _, _, kts = build_kts()
        kts.gen_ts("k")
        kts.gen_ts("k")
        assert kts.recover("k", 1) is False

    def test_periodic_inspection_corrects_from_stored_timestamps(self):
        network, replication, kts = build_kts()
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        responsible = kts.responsible_of_timestamping("k")
        # Simulate a counter that was initialised too low (e.g. a lost update).
        counter = kts.peer_state(responsible).vcs.get("k")
        counter.value = 0
        counter.exact = True
        counter.last_known = None
        corrected = kts.inspect_counters(responsible)
        assert corrected == 1
        assert kts.last_ts("k").value == latest.value

    def test_periodic_inspection_reports_zero_when_consistent(self):
        network, replication, kts = build_kts()
        latest = kts.gen_ts("k")
        for hash_fn in replication:
            network.put("k", hash_fn, "payload", timestamp=latest)
        assert kts.inspect_counters() == 0


class TestConfiguration:
    def test_unknown_initialization_rejected(self):
        network = DHTNetwork.build(4, seed=1)
        replication = ReplicationScheme(HashFamily(bits=32, seed=2).sample_many(2))
        with pytest.raises(ValueError):
            KeyBasedTimestampService(network, replication, initialization="magic")

    def test_negative_safety_margin_rejected(self):
        network = DHTNetwork.build(4, seed=1)
        replication = ReplicationScheme(HashFamily(bits=32, seed=2).sample_many(2))
        with pytest.raises(ValueError):
            KeyBasedTimestampService(network, replication, indirect_safety_margin=-1)

    def test_default_ts_hash_is_sampled_when_missing(self):
        network = DHTNetwork.build(4, seed=1)
        replication = ReplicationScheme(HashFamily(bits=32, seed=2).sample_many(2))
        kts = KeyBasedTimestampService(network, replication, seed=3)
        assert kts.ts_hash.name == "h-ts"
