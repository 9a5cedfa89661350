"""Tests for the shared agenda application of ``examples/agenda_sharing.py``."""

from __future__ import annotations

import pytest

from test_examples import load_example

example = load_example("agenda_sharing.py")
AgendaEntry = example.AgendaEntry
SharedAgenda = example.SharedAgenda
StaleAgendaError = example.StaleAgendaError


@pytest.fixture
def agenda(small_stack):
    return SharedAgenda(small_stack.service("ums"), "team")


class TestAgendaEntry:
    def test_overlap_detection(self):
        first = AgendaEntry(0, "a", 9.0, 10.0, ())
        second = AgendaEntry(1, "b", 9.5, 11.0, ())
        third = AgendaEntry(2, "c", 10.0, 11.0, ())
        assert first.overlaps(second)
        assert not first.overlaps(third)

    def test_round_trip_through_dict(self):
        entry = AgendaEntry(3, "standup", 9.0, 9.25, ("alice", "bob"))
        assert AgendaEntry.from_dict(entry.to_dict()) == entry


class TestSharedAgenda:
    def test_empty_agenda(self, agenda):
        assert agenda.entries() == []
        assert len(agenda) == 0

    def test_add_and_list_entries_sorted_by_start(self, agenda):
        agenda.add_entry("later", start=14.0, end=15.0)
        agenda.add_entry("earlier", start=9.0, end=10.0)
        assert [entry.title for entry in agenda.entries()] == ["earlier", "later"]

    def test_entry_ids_are_unique_and_increasing(self, agenda):
        first = agenda.add_entry("a", 1.0, 2.0)
        second = agenda.add_entry("b", 3.0, 4.0)
        assert second.entry_id == first.entry_id + 1

    def test_invalid_interval_rejected(self, agenda):
        with pytest.raises(ValueError):
            agenda.add_entry("broken", start=5.0, end=5.0)

    def test_cancel_entry(self, agenda):
        entry = agenda.add_entry("cancel-me", 1.0, 2.0)
        assert agenda.cancel_entry(entry.entry_id) is True
        assert agenda.cancel_entry(entry.entry_id) is False
        assert len(agenda) == 0

    def test_conflicts_detected(self, agenda):
        agenda.add_entry("a", 9.0, 11.0)
        agenda.add_entry("b", 10.0, 12.0)
        agenda.add_entry("c", 13.0, 14.0)
        conflicts = agenda.conflicts()
        assert len(conflicts) == 1
        assert {entry.title for entry in conflicts[0]} == {"a", "b"}

    def test_busy_between(self, agenda):
        agenda.add_entry("a", 9.0, 10.0)
        assert agenda.busy_between(9.5, 9.75)
        assert not agenda.busy_between(10.0, 11.0)

    def test_agenda_survives_churn(self, small_stack, agenda):
        agenda.add_entry("durable", 9.0, 10.0)
        for _ in range(15):
            small_stack.network.leave_peer(small_stack.network.random_alive_peer())
            small_stack.network.join_peer()
        assert [entry.title for entry in agenda.entries()] == ["durable"]
        assert agenda.last_read_was_current()

    def test_stale_snapshot_blocks_mutation(self, small_stack, agenda):
        agenda.add_entry("a", 9.0, 10.0)
        # Make every stored replica stale: a newer timestamp exists but reached
        # no replica holder.
        holders = frozenset(small_stack.network.responsible_peer(agenda.key, h)
                            for h in small_stack.replication)
        small_stack.service("ums").insert(agenda.key, {"entries": [], "next_id": 9},
                               unreachable=holders)
        with pytest.raises(StaleAgendaError):
            agenda.add_entry("should-fail", 11.0, 12.0)

    def test_stale_snapshot_allowed_when_not_required_current(self, small_stack):
        agenda = SharedAgenda(small_stack.service("ums"), "relaxed", require_current=False)
        agenda.add_entry("a", 9.0, 10.0)
        holders = frozenset(small_stack.network.responsible_peer(agenda.key, h)
                            for h in small_stack.replication)
        small_stack.service("ums").insert(agenda.key, {"entries": [], "next_id": 9},
                               unreachable=holders)
        entry = agenda.add_entry("allowed", 11.0, 12.0)
        assert entry.title == "allowed"

    def test_two_agendas_are_independent(self, small_stack):
        first = SharedAgenda(small_stack.service("ums"), "team-a")
        second = SharedAgenda(small_stack.service("ums"), "team-b")
        first.add_entry("only-in-a", 1.0, 2.0)
        assert len(second) == 0
