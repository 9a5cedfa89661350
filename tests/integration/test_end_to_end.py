"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import random

from trace_columns import record_columns

from repro.api import Cluster
from repro.core import CounterInitialization
from repro.simulation.cost import NetworkCostModel


class TestUmsVersusBrk:
    def test_ums_and_brk_agree_when_everything_is_healthy(self, small_stack):
        for sequence in range(3):
            small_stack.service("ums").insert("ums-key", f"v{sequence}")
            small_stack.service("brk").insert("brk-key", f"v{sequence}")
        assert small_stack.service("ums").retrieve("ums-key").data == "v2"
        assert small_stack.service("brk").retrieve("brk-key").data == "v2"

    def test_ums_is_cheaper_and_certifies_currency(self, small_stack):
        small_stack.service("ums").insert("k", "payload")
        small_stack.service("brk").insert("k-brk", "payload")
        ums_result = small_stack.service("ums").retrieve("k")
        brk_result = small_stack.service("brk").retrieve("k-brk")
        assert ums_result.is_current
        assert ums_result.trace.message_count < brk_result.trace.message_count

    def test_response_time_ordering_under_the_wan_cost_model(self, small_stack):
        cost = NetworkCostModel(rng=random.Random(5))
        small_stack.service("ums").insert("k-ums", "payload")
        small_stack.service("brk").insert("k-brk", "payload")
        columns = record_columns(small_stack.network)
        ums_duration, brk_duration = (
            sum(cost.message_delay(*message)
                for message in columns.run(small_stack.service(name).retrieve, key)[1])
            for name, key in (("ums", "k-ums"), ("brk", "k-brk")))
        assert ums_duration < brk_duration


class TestManyKeysUnderChurn:
    def test_hundred_keys_survive_mixed_churn(self):
        cluster = Cluster.build(peers=80, replicas=8, seed=13)
        rng = random.Random(13)
        keys = [f"doc-{index}" for index in range(100)]
        for key in keys:
            cluster.service("ums").insert(key, {"body": key})
        for _ in range(40):
            victim = cluster.network.random_alive_peer()
            if rng.random() < 0.25:
                cluster.network.fail_peer(victim)
            else:
                cluster.network.leave_peer(victim)
            cluster.network.join_peer()
        found = 0
        current = 0
        for key in keys:
            result = cluster.service("ums").retrieve(key)
            found += result.found
            current += result.is_current
            if result.found:
                assert result.data == {"body": key}
        # Normal leaves hand data over, so every key should still be found;
        # a few replicas were wiped by failures but the current ones dominate.
        assert found == len(keys)
        assert current >= 0.95 * len(keys)

    def test_interleaved_updates_and_churn_converge(self):
        cluster = Cluster.build(peers=64, replicas=6, seed=17)
        rng = random.Random(17)
        expected = {}
        for round_number in range(25):
            key = f"key-{rng.randrange(8)}"
            value = f"value-{round_number}"
            cluster.service("ums").insert(key, value)
            expected[key] = value
            victim = cluster.network.random_alive_peer()
            if rng.random() < 0.2:
                cluster.network.fail_peer(victim)
            else:
                cluster.network.leave_peer(victim)
            cluster.network.join_peer()
        for key, value in expected.items():
            result = cluster.service("ums").retrieve(key)
            assert result.found
            assert result.data == value

    def test_direct_and_indirect_modes_return_identical_data(self):
        for mode in (CounterInitialization.DIRECT, CounterInitialization.INDIRECT):
            cluster = Cluster.build(peers=48, replicas=6, seed=23,
                                    initialization=mode)
            rng = random.Random(23)
            for sequence in range(10):
                cluster.service("ums").insert("shared", f"v{sequence}")
                cluster.network.leave_peer(cluster.network.random_alive_peer())
                cluster.network.join_peer()
            result = cluster.service("ums").retrieve("shared")
            assert result.data == "v9"
            assert result.is_current


class TestTimestampIntegrity:
    def test_timestamps_across_the_stack_never_repeat(self, small_stack):
        seen = set()
        for sequence in range(20):
            result = small_stack.service("ums").insert("k", sequence)
            assert result.timestamp.value not in seen
            seen.add(result.timestamp.value)
            if sequence % 5 == 0:
                small_stack.network.leave_peer(small_stack.network.random_alive_peer())
                small_stack.network.join_peer()

    def test_retrieve_never_returns_older_data_than_previously_observed(self, small_stack):
        highest_seen = -1
        for sequence in range(15):
            small_stack.service("ums").insert("monotone", sequence)
            observed = small_stack.service("ums").retrieve("monotone").data
            assert observed >= highest_seen
            highest_seen = observed
