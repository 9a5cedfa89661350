"""Unit tests for the Update Management Service (Section 3)."""

from __future__ import annotations

import pytest
from trace_columns import record_columns

from repro.api import Cluster
from repro.core.audit import audit_key
from repro.dht.messages import MessageKind


class TestInsert:
    def test_insert_writes_every_replica(self, small_stack):
        result = small_stack.service("ums").insert("k", {"v": 1})
        assert result.replicas_attempted == small_stack.replication.factor
        assert result.replicas_written == small_stack.replication.factor
        assert result.fully_replicated

    def test_insert_attaches_a_fresh_timestamp(self, small_stack):
        first = small_stack.service("ums").insert("k", "a")
        second = small_stack.service("ums").insert("k", "b")
        assert second.timestamp.value == first.timestamp.value + 1

    def test_replicas_carry_the_timestamp(self, small_stack):
        result = small_stack.service("ums").insert("k", "payload")
        replicas = small_stack.network.stored_replicas("k", small_stack.replication)
        assert len(replicas) == small_stack.replication.factor
        assert all(entry.timestamp == result.timestamp for entry in replicas)

    def test_insert_with_unreachable_holders_is_partial(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        holders = {small_stack.network.responsible_peer("k", h)
                   for h in small_stack.replication}
        skipped = frozenset(list(holders)[:1])
        result = small_stack.service("ums").insert("k", "v1", unreachable=skipped)
        assert not result.fully_replicated
        assert result.replicas_written < result.replicas_attempted

    def test_insert_trace_contains_puts_and_timestamping(self, small_stack):
        columns = record_columns(small_stack.network)
        small_stack.service("ums").insert("k", "payload")
        kinds = [message.kind for message in columns]
        assert kinds.count(MessageKind.PUT_REQUEST) == small_stack.replication.factor
        assert MessageKind.TSR in kinds


class TestRetrieve:
    def test_retrieve_returns_latest_insert(self, small_stack):
        small_stack.service("ums").insert("k", "old")
        small_stack.service("ums").insert("k", "new")
        result = small_stack.service("ums").retrieve("k")
        assert result.data == "new"
        assert result.is_current
        assert result.found

    def test_retrieve_unknown_key(self, small_stack):
        result = small_stack.service("ums").retrieve("never-inserted")
        assert not result.found
        assert result.data is None
        assert not result.is_current
        assert result.latest_timestamp is None

    def test_retrieve_stops_at_the_first_current_replica(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        result = small_stack.service("ums").retrieve("k")
        assert result.replicas_inspected == 1

    def test_retrieve_probes_at_most_all_replicas(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        result = small_stack.service("ums").retrieve("k")
        assert result.replicas_inspected <= small_stack.replication.factor

    def test_partial_update_still_returns_current(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        holders = sorted({small_stack.network.responsible_peer("k", h)
                          for h in small_stack.replication})
        skipped = frozenset(holders[: len(holders) // 2])
        small_stack.service("ums").insert("k", "v1", unreachable=skipped)
        result = small_stack.service("ums").retrieve("k")
        assert result.data == "v1"
        assert result.is_current

    def test_concurrent_updates_converge_to_the_latest_timestamp(self, small_stack):
        # Two "concurrent" inserts: whichever obtains the later KTS timestamp
        # wins at every replica, regardless of message arrival order.
        first = small_stack.service("ums").insert("k", "from-peer-A")
        second = small_stack.service("ums").insert("k", "from-peer-B")
        assert second.timestamp > first.timestamp
        replicas = small_stack.network.stored_replicas("k", small_stack.replication)
        assert all(entry.data == "from-peer-B" for entry in replicas)

    def test_stale_read_is_flagged_when_no_current_replica_is_available(self, small_stack):
        network, ums = small_stack.network, small_stack.service("ums")
        ums.insert("k", "old")
        # The next update reaches NO replica holder (all unreachable), so only
        # the timestamp advances; every stored replica is now stale.
        holders = frozenset(network.responsible_peer("k", h) for h in small_stack.replication)
        ums.insert("k", "new-but-lost", unreachable=holders)
        result = ums.retrieve("k")
        assert result.found
        assert not result.is_current
        assert result.data == "old"
        assert result.replicas_inspected == small_stack.replication.factor

    def test_retrieve_returns_most_recent_available_replica(self, small_stack):
        network, ums = small_stack.network, small_stack.service("ums")
        ums.insert("k", "v1")
        holders = sorted({network.responsible_peer("k", h) for h in small_stack.replication})
        # v2 reaches only a subset; v3 reaches nothing.
        ums.insert("k", "v2", unreachable=frozenset(holders[:2]))
        ums.insert("k", "v3", unreachable=frozenset(holders))
        result = ums.retrieve("k")
        assert result.found
        assert not result.is_current
        assert result.data == "v2"

    def test_message_cost_is_much_lower_than_retrieving_all_replicas(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        ums_messages = small_stack.service("ums").retrieve("k").trace.message_count
        brk_messages = small_stack.service("brk").retrieve("k").trace.message_count
        # BRK has to read all |Hr| replicas; UMS needs the KTS lookup plus one get.
        assert ums_messages < brk_messages

    def test_currency_probability_reflects_partial_updates(self, small_stack):
        ums = small_stack.service("ums")
        ums.insert("k", "v0")
        assert ums.currency_probability("k") == pytest.approx(1.0)
        holders = sorted({small_stack.network.responsible_peer("k", h)
                          for h in small_stack.replication})
        ums.insert("k", "v1", unreachable=frozenset(holders[:2]))
        assert 0.0 < ums.currency_probability("k") < 1.0

    def test_currency_probability_for_unknown_key_is_zero(self, small_stack):
        assert small_stack.service("ums").currency_probability("missing") == 0.0


class TestProbeOrder:
    def test_fixed_probe_order_follows_hr(self):
        cluster = Cluster.build(peers=16, replicas=5, seed=3,
                                probe_order="fixed")
        probes = cluster.service("ums")._probe_sequence()
        assert [fn.name for fn in probes] == cluster.replication.names

    def test_random_probe_order_is_a_permutation(self, small_stack):
        names = sorted(fn.name for fn in small_stack.service("ums")._probe_sequence())
        assert names == sorted(small_stack.replication.names)

    def test_unknown_probe_order_rejected(self, small_stack):
        from repro.core.ums import UpdateManagementService
        with pytest.raises(ValueError):
            UpdateManagementService(small_stack.network, small_stack.kts,
                                    small_stack.replication, probe_order="sorted")


class TestChurnResilience:
    def test_retrieve_survives_leaves_and_joins(self, small_stack):
        network, ums = small_stack.network, small_stack.service("ums")
        ums.insert("k", "durable")
        for _ in range(20):
            network.leave_peer(network.random_alive_peer())
            network.join_peer()
        result = ums.retrieve("k")
        assert result.data == "durable"
        assert result.is_current

    def test_retrieve_survives_a_minority_of_failures(self, small_stack):
        network, ums = small_stack.network, small_stack.service("ums")
        ums.insert("k", "durable")
        for _ in range(5):
            network.fail_peer(network.random_alive_peer())
            network.join_peer()
        result = ums.retrieve("k")
        assert result.found
        assert result.data == "durable"

    def test_update_after_churn_restores_full_currency(self, small_stack):
        network, ums = small_stack.network, small_stack.service("ums")
        ums.insert("k", "v0")
        for _ in range(10):
            network.fail_peer(network.random_alive_peer())
            network.join_peer()
        ums.insert("k", "v1")
        assert ums.currency_probability("k") == pytest.approx(1.0)
        assert ums.retrieve("k").data == "v1"


class TestCurrencyProbability:
    """``pt`` is measured against the latest certified timestamp."""

    def holders(self, stack, key):
        return frozenset(stack.network.responsible_peer(key, hash_fn)
                         for hash_fn in stack.replication)

    def test_an_update_no_replica_received_leaves_no_current_replica(self, small_stack):
        ums = small_stack.service("ums")
        ums.insert("k", "v0")
        assert ums.currency_probability("k") == pytest.approx(1.0)
        ums.insert("k", "v1", unreachable=self.holders(small_stack, "k"))
        # Storage alone still reads every replica current (newest stored).
        assert audit_key(small_stack.network, small_stack.replication,
                         "k").currency_probability == pytest.approx(1.0)
        assert ums.currency_probability("k") == 0.0
        result = ums.retrieve("k")
        assert result.found and result.data == "v0" and not result.is_current

    def test_reading_pt_changes_no_state(self, small_stack):
        network, kts, ums = small_stack.network, small_stack.kts, small_stack.service("ums")
        ums.insert("k", "v0")
        states = dict(kts._states)
        rngs = [each.rng.getstate() for each in (network, kts, ums)]
        counters = {peer: list(vcs.keys()) for peer, vcs in kts._states.items()}
        maintenance = network.stats.maintenance_messages
        for key in ("k", "never-inserted"):
            ums.currency_probability(key)
        assert network.stats.maintenance_messages == maintenance
        assert kts._states == states
        assert {peer: list(vcs.keys()) for peer, vcs in kts._states.items()} == counters
        assert [each.rng.getstate() for each in (network, kts, ums)] == rngs

    def test_without_a_counter_the_newest_stored_stamp_stands_in(self, small_stack):
        network, kts, ums = small_stack.network, small_stack.kts, small_stack.service("ums")
        ums.insert("k", "v0")
        ums.insert("k", "v1")
        # The counter is lost with its peer's state, as on a failure.
        kts._states.pop(kts.responsible_of_timestamping("k"))
        assert kts.peek_last_ts("k") is None
        assert ums.currency_probability("k") == pytest.approx(1.0)
        assert ums.currency_probability("never-inserted") == 0.0
