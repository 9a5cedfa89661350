"""Unit tests for the BRK (BRICKS) baseline."""

from __future__ import annotations

import pytest
from trace_columns import record_columns

from repro.api import Cluster
from repro.dht.messages import MessageKind


@pytest.fixture
def small_stack(small_stack):
    """The shared stack, with a column recorder: these tests read message kinds."""
    record_columns(small_stack.network)
    return small_stack


def kinds_of(stack, operation, *args, **kwargs):
    """``operation``'s result and the kinds of the messages it sent."""
    result, columns = stack.network.on_message.run(operation, *args, **kwargs)
    return result, [message.kind for message in columns]


class TestInsert:
    def test_versions_increase_with_sequential_updates(self, small_stack):
        first = small_stack.service("brk").insert("k", "a")
        second = small_stack.service("brk").insert("k", "b")
        assert first.version == 1
        assert second.version == 2

    def test_insert_writes_every_replica(self, small_stack):
        result = small_stack.service("brk").insert("k", "a")
        assert result.replicas_written == small_stack.replication.factor
        replicas = small_stack.network.stored_replicas("k", small_stack.replication)
        assert all(entry.version == 1 for entry in replicas)

    def test_insert_reads_before_writing(self, small_stack):
        result, kinds = kinds_of(small_stack, small_stack.service("brk").insert, "k", "a")
        assert kinds.count(MessageKind.GET_REQUEST) == small_stack.replication.factor
        assert kinds.count(MessageKind.PUT_REQUEST) == small_stack.replication.factor

    def test_observed_version_skips_the_read_phase(self, small_stack):
        small_stack.service("brk").insert("k", "a")
        result, kinds = kinds_of(small_stack, small_stack.service("brk").insert, "k", "b",
                                 observed_version=1)
        assert kinds.count(MessageKind.GET_REQUEST) == 0
        assert result.version == 2

    def test_concurrent_updates_can_share_a_version_number(self, small_stack):
        base = small_stack.service("brk").insert("k", "base")
        first = small_stack.service("brk").insert("k", "from-A", observed_version=base.version)
        second = small_stack.service("brk").insert("k", "from-B", observed_version=base.version)
        assert first.version == second.version == base.version + 1


class TestRetrieve:
    def test_retrieve_returns_highest_version(self, small_stack):
        small_stack.service("brk").insert("k", "old")
        small_stack.service("brk").insert("k", "new")
        result = small_stack.service("brk").retrieve("k")
        assert result.found
        assert result.data == "new"
        assert result.version == 2
        assert not result.ambiguous

    def test_retrieve_always_reads_every_replica(self, small_stack):
        small_stack.service("brk").insert("k", "v")
        result, kinds = kinds_of(small_stack, small_stack.service("brk").retrieve, "k")
        assert result.replicas_inspected == small_stack.replication.factor
        assert kinds.count(MessageKind.GET_REQUEST) == small_stack.replication.factor

    def test_retrieve_unknown_key(self, small_stack):
        result = small_stack.service("brk").retrieve("missing")
        assert not result.found
        assert result.version is None
        assert result.data is None

    def test_concurrent_updates_are_ambiguous(self, small_stack):
        network, brk = small_stack.network, small_stack.service("brk")
        base = brk.insert("k", "base")
        holders = sorted({network.responsible_peer("k", h) for h in small_stack.replication})
        # Both updaters observed version 1; their writes reach different
        # subsets of the replica holders, leaving same-version divergence.
        brk.insert("k", "from-A", observed_version=base.version)
        brk.insert("k", "from-B", observed_version=base.version,
                   unreachable=frozenset(holders[::2]))
        result = brk.retrieve("k")
        assert result.version == base.version + 1
        assert result.ambiguous

    def test_message_cost_scales_with_replication_factor(self):
        small = Cluster.build(peers=32, replicas=4, seed=10).service("brk")
        large = Cluster.build(peers=32, replicas=16, seed=10).service("brk")
        small.insert("k", "v")
        large.insert("k", "v")
        assert large.retrieve("k").message_count > small.retrieve("k").message_count

    def test_stale_update_does_not_overwrite_newer_version(self, small_stack):
        brk = small_stack.service("brk")
        brk.insert("k", "v1")
        brk.insert("k", "v2")
        # A laggard updater writes with an old observed version: its version (2)
        # does not exceed the stored version (2) ... last writer wins silently,
        # which is exactly the BRICKS weakness; the retrieve still returns a
        # version-2 replica.
        brk.insert("k", "laggard", observed_version=1)
        result = brk.retrieve("k")
        assert result.version == 2
