"""Tests for the replica auditing diagnostics."""

from __future__ import annotations

import pytest

from repro.core.audit import ReplicaStatus, audit_key


class TestAuditKey:
    def test_fresh_insert_is_fully_current(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert audit.replica_count == small_stack.replication.factor
        assert audit.current_count == audit.replica_count
        assert audit.stale_count == 0
        assert audit.currency_probability == pytest.approx(1.0)
        assert audit.latest_timestamp == 1

    def test_unknown_key_is_all_missing(self, small_stack):
        audit = audit_key(small_stack.network, small_stack.replication, "missing")
        assert audit.current_count == audit.stale_count == 0
        assert audit.currency_probability == 0.0
        assert audit.latest_timestamp is None

    def test_partial_update_produces_stale_replicas(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        holders = sorted({small_stack.network.responsible_peer("k", h)
                          for h in small_stack.replication})
        small_stack.service("ums").insert("k", "v1", unreachable=frozenset(holders[:2]))
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert audit.stale_count >= 1
        assert audit.current_count + audit.stale_count == audit.replica_count
        assert 0.0 < audit.currency_probability < 1.0
        assert audit.latest_timestamp == 2

    def test_failure_produces_missing_replicas(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        holder = small_stack.network.responsible_peer("k", small_stack.replication[0])
        small_stack.network.fail_peer(holder)
        small_stack.network.join_peer()
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert audit.current_count + audit.stale_count < audit.replica_count

    def test_audit_matches_ums_currency_probability(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        holders = sorted({small_stack.network.responsible_peer("k", h)
                          for h in small_stack.replication})
        small_stack.service("ums").insert("k", "v1", unreachable=frozenset(holders[:1]))
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert audit.currency_probability == pytest.approx(
            small_stack.service("ums").currency_probability("k"))

    def test_statuses_use_the_documented_labels(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert set(audit.statuses.values()) <= {ReplicaStatus.CURRENT,
                                                ReplicaStatus.STALE,
                                                ReplicaStatus.MISSING}

