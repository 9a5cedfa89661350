"""Unit tests for the per-peer replica store and its reconciliation rules."""

from __future__ import annotations

from repro.core.timestamps import Timestamp
from repro.dht.storage import (
    LocalStore,
    StoredValue,
    advanced_past,
    reconciliation_token,
)


def ts_entry(key="k", value=1, data="payload", hash_name="hr-0"):
    return StoredValue(key=key, data=data, timestamp=Timestamp(key, value),
                       hash_name=hash_name, point=123)


def version_entry(key="k", version=1, data="payload", hash_name="hr-0"):
    return StoredValue(key=key, data=data, version=version, hash_name=hash_name, point=123)


class TestStoredValueReconciliation:
    def test_anything_is_newer_than_nothing(self):
        assert ts_entry().is_newer_than(None)

    def test_newer_timestamp_wins(self):
        assert ts_entry(value=2).is_newer_than(ts_entry(value=1))

    def test_older_timestamp_loses(self):
        assert not ts_entry(value=1).is_newer_than(ts_entry(value=2))

    def test_equal_timestamp_does_not_overwrite(self):
        assert not ts_entry(value=3).is_newer_than(ts_entry(value=3))

    def test_higher_version_wins(self):
        assert version_entry(version=4).is_newer_than(version_entry(version=3))

    def test_equal_version_overwrites_last_writer_wins(self):
        # BRICKS has no tie-break: the last writer silently wins, which is the
        # ambiguity the paper criticises.
        assert version_entry(version=2).is_newer_than(version_entry(version=2))

    def test_lower_version_loses(self):
        assert not version_entry(version=1).is_newer_than(version_entry(version=2))

    def test_stamped_replica_beats_unstamped(self):
        unstamped = StoredValue(key="k", data="old", hash_name="hr-0")
        assert ts_entry().is_newer_than(unstamped)
        assert version_entry().is_newer_than(unstamped)

    def test_unstamped_does_not_beat_stamped(self):
        unstamped = StoredValue(key="k", data="new", hash_name="hr-0")
        assert not unstamped.is_newer_than(ts_entry())


class TestLocalStore:
    def test_put_and_get_roundtrip(self):
        store = LocalStore()
        entry = ts_entry()
        assert store.put(entry) is True
        assert store.get("hr-0", "k") is entry

    def test_get_missing_returns_none(self):
        assert LocalStore().get("hr-0", "missing") is None

    def test_put_respects_reconciliation(self):
        store = LocalStore()
        store.put(ts_entry(value=5, data="newer"))
        assert store.put(ts_entry(value=3, data="older")) is False
        assert store.get("hr-0", "k").data == "newer"

    def test_put_without_reconcile_overwrites(self):
        store = LocalStore()
        store.put(ts_entry(value=5, data="newer"))
        assert store.put(ts_entry(value=3, data="older"), reconcile=False) is True
        assert store.get("hr-0", "k").data == "older"

    def test_same_key_under_different_hashes_coexists(self):
        store = LocalStore()
        store.put(ts_entry(hash_name="hr-0", data="a"))
        store.put(ts_entry(hash_name="hr-1", data="b"))
        assert len(store) == 2
        assert store.get("hr-0", "k").data == "a"
        assert store.get("hr-1", "k").data == "b"

    def test_delete_returns_entry(self):
        store = LocalStore()
        entry = ts_entry()
        store.put(entry)
        assert store.delete("hr-0", "k") is entry
        assert store.delete("hr-0", "k") is None
        assert len(store) == 0

    def test_contains_and_in_operator(self):
        store = LocalStore()
        store.put(ts_entry())
        assert store.contains("hr-0", "k")
        assert ("hr-0", "k") in store
        assert not store.contains("hr-9", "k")

    def test_values_and_keys_snapshot(self):
        store = LocalStore()
        store.put(ts_entry(hash_name="hr-0"))
        store.put(ts_entry(hash_name="hr-1"))
        assert len(store.values()) == 2
        assert set(store.keys()) == {("hr-0", "k"), ("hr-1", "k")}

    def test_replicas_of_filters_by_key(self):
        store = LocalStore()
        store.put(ts_entry(key="k1", hash_name="hr-0"))
        store.put(ts_entry(key="k2", hash_name="hr-1"))
        assert [entry.key for entry in store.replicas_of("k1")] == ["k1"]

    def test_clear_empties_store(self):
        store = LocalStore()
        store.put(ts_entry())
        store.clear()
        assert len(store) == 0

    def test_iteration_yields_entries(self):
        store = LocalStore()
        store.put(ts_entry(hash_name="hr-0"))
        store.put(ts_entry(hash_name="hr-1"))
        assert sorted(entry.hash_name for entry in store) == ["hr-0", "hr-1"]



def point_entry(key, point, hash_name="hr-0", version=1):
    return StoredValue(key=key, data=f"data-{key}", version=version,
                       hash_name=hash_name, point=point)


class TestPointIndex:
    def test_points_are_sorted_and_distinct(self):
        store = LocalStore()
        for key, point in (("a", 30), ("b", 10), ("c", 10), ("d", 20)):
            store.put(point_entry(key, point))
        assert store.points() == [10, 20, 30]

    def test_entries_at_groups_by_point(self):
        store = LocalStore()
        store.put(point_entry("a", 10))
        store.put(point_entry("b", 10, hash_name="hr-1"))
        store.put(point_entry("c", 20))
        assert sorted(entry.key for entry in store.entries_at(10)) == ["a", "b"]
        assert store.entries_at(99) == []

    def test_entries_in_span_simple_interval(self):
        store = LocalStore()
        for key, point in (("a", 5), ("b", 10), ("c", 15), ("d", 20)):
            store.put(point_entry(key, point))
        # (5, 15] excludes the lower bound and includes the upper one.
        assert sorted(entry.key for entry in store.entries_in_span(5, 15)) == \
            ["b", "c"]

    def test_entries_in_span_wrapping_interval(self):
        store = LocalStore()
        for key, point in (("a", 5), ("b", 10), ("c", 200), ("d", 250)):
            store.put(point_entry(key, point))
        # (200, 10] wraps past the top of the space.
        assert sorted(entry.key for entry in store.entries_in_span(200, 10)) == \
            ["a", "b", "d"]

    def test_entries_in_span_degenerate_interval_is_whole_space(self):
        store = LocalStore()
        for key, point in (("a", 5), ("b", 10)):
            store.put(point_entry(key, point))
        assert sorted(entry.key for entry in store.entries_in_span(7, 7)) == \
            ["a", "b"]

    def test_delete_maintains_point_index(self):
        store = LocalStore()
        store.put(point_entry("a", 10))
        store.put(point_entry("b", 10, hash_name="hr-1"))
        store.delete("hr-0", "a")
        assert store.points() == [10]
        store.delete("hr-1", "b")
        assert store.points() == []

    def test_clear_resets_point_index(self):
        store = LocalStore()
        store.put(point_entry("a", 10))
        store.clear()
        assert store.points() == []
        assert store.entries_at(10) == []

    def test_rejected_put_leaves_index_unchanged(self):
        store = LocalStore()
        store.put(point_entry("a", 10, version=5))
        assert not store.put(point_entry("a", 10, version=3))
        assert store.points() == [10]
        assert len(store.entries_at(10)) == 1

    def test_accepted_put_replaces_the_indexed_entry(self):
        store = LocalStore()
        store.put(point_entry("a", 10, version=3))
        assert store.put(point_entry("a", 10, version=5))
        assert store.points() == [10]
        assert [entry.version for entry in store.entries_at(10)] == [5]
        assert [entry.version for entry in store.entries_in_span(9, 10)] == [5]


class TestDeltaSyncPrimitives:
    def test_reconciliation_tokens_by_kind(self):
        assert reconciliation_token(ts_entry(value=7)) == ("ts", 7)
        assert reconciliation_token(version_entry(version=3)) == ("version", 3)
        bare = StoredValue(key="k", data="d", hash_name="hr-0", point=1)
        assert reconciliation_token(bare) == ("none", 0)

    def test_advanced_past_is_strictly_greater(self):
        assert advanced_past(ts_entry(value=8), ("ts", 7))
        assert not advanced_past(ts_entry(value=7), ("ts", 7))
        assert advanced_past(version_entry(version=4), ("version", 3))
        # Equal versions are NOT an advance: is_newer_than says last-writer-
        # wins on ties (the BRK ambiguity), but re-shipping a consistent
        # population would never converge.
        assert not advanced_past(version_entry(version=3), ("version", 3))

    def test_advanced_past_is_conservative_on_kind_mismatch(self):
        # Any mismatch the filter cannot prove stale ships the entry and
        # lets the destination's reconciliation decide.
        assert advanced_past(ts_entry(value=1), ("version", 99))
        assert advanced_past(ts_entry(value=1), ("none", 0))
        assert advanced_past(version_entry(version=1), ("future-kind", 0))
        bare = StoredValue(key="k", data="d", hash_name="hr-0", point=1)
        assert not advanced_past(bare, ("none", 0))

    def test_timestamp_summary_maps_slots_to_tokens(self):
        store = LocalStore()
        store.put(point_entry("a", 10, version=2))
        store.put(point_entry("b", 20, version=5, hash_name="hr-1"))
        summary = store.timestamp_summary(0, 0)
        assert summary == {("hr-0", "a"): ("version", 2),
                           ("hr-1", "b"): ("version", 5)}

    def test_summary_respects_the_span(self):
        store = LocalStore()
        store.put(point_entry("a", 10))
        store.put(point_entry("b", 200))
        assert set(store.timestamp_summary(5, 100)) == {("hr-0", "a")}

    def test_entries_newer_than_ships_only_the_delta(self):
        source = LocalStore()
        source.put(point_entry("same", 10, version=3))
        source.put(point_entry("ahead", 20, version=9))
        source.put(point_entry("missing", 30, version=1))
        dest_summary = {("hr-0", "same"): ("version", 3),
                        ("hr-0", "ahead"): ("version", 2)}
        shipped = source.entries_newer_than(0, 0, dest_summary)
        assert sorted(entry.key for entry in shipped) == ["ahead", "missing"]

    def test_entries_newer_than_empty_summary_is_full_state(self):
        store = LocalStore()
        for key, point in (("a", 10), ("b", 20)):
            store.put(point_entry(key, point))
        assert len(store.entries_newer_than(0, 0, {})) == 2
