"""Tests for the replica auditing diagnostics."""

from __future__ import annotations

import pytest

from repro.core.audit import ReplicaStatus, audit_key, audit_keys


class TestAuditKey:
    def test_fresh_insert_is_fully_current(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        audit = audit_key(small_stack.network, small_stack.replication, "k")
        assert audit.replica_count == small_stack.replication.factor
        assert audit.current_count == audit.replica_count
        assert audit.stale_count == 0
        assert audit.missing_count == 0
        assert audit.currency_probability == pytest.approx(1.0)
        assert audit.is_available
        assert audit.latest_timestamp == 1

    def test_unknown_key_is_all_missing(self, small_stack):
        audit = audit_key(small_stack.network, small_stack.replication, "missing")
        assert audit.missing_count == audit.replica_count
        assert audit.currency_probability == 0.0
        assert not audit.is_available
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
        assert audit.missing_count >= 1

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


class TestAuditReport:
    def test_aggregate_over_keys(self, small_stack):
        for index in range(5):
            small_stack.service("ums").insert(f"k{index}", index)
        report = audit_keys(small_stack.network, small_stack.replication,
                            [f"k{index}" for index in range(5)] + ["missing"])
        assert report.key_count == 6
        assert report.fully_current_keys == 5
        assert report.unavailable_keys == 1
        assert 0.0 < report.mean_currency_probability < 1.0
        assert report.keys_with_stale_replicas() == []

    def test_stale_keys_are_listed(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        holders = sorted({small_stack.network.responsible_peer("k", h)
                          for h in small_stack.replication})
        small_stack.service("ums").insert("k", "v1", unreachable=frozenset(holders[:2]))
        report = audit_keys(small_stack.network, small_stack.replication, ["k"])
        assert report.keys_with_stale_replicas() == ["k"]

    def test_empty_report(self, small_stack):
        report = audit_keys(small_stack.network, small_stack.replication, [])
        assert report.key_count == 0
        assert report.mean_currency_probability == 0.0
        assert report.summary()["keys"] == 0.0

    def test_summary_fields(self, small_stack):
        small_stack.service("ums").insert("k", "v")
        report = audit_keys(small_stack.network, small_stack.replication, ["k"])
        summary = report.summary()
        assert set(summary) == {"keys", "mean_pt", "fully_current_keys",
                                "unavailable_keys", "keys_with_stale_replicas"}
        assert summary["mean_pt"] == pytest.approx(1.0)
