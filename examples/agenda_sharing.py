#!/usr/bin/env python
"""Agenda management over a replicated DHT (paper Section 1, first motivating app).

A team shares one agenda replicated across a churning P2P network.  Members
add meetings from different peers; the shared agenda must always reflect the
latest state, otherwise double bookings slip in.  The example shows that the
agenda stays correct while peers join, leave and fail between operations.

Every mutation of :class:`SharedAgenda` is a read-modify-write cycle through
the currency service: retrieve the current agenda (UMS guarantees the
*current* replica whenever one is available), apply the change and insert the
new version.  Because UMS timestamps every insert, concurrent writers converge
on the version carrying the latest timestamp instead of silently diverging —
exactly what a plain DHT ``put``/``get`` cannot offer.  The agenda talks to
any :class:`repro.api.CurrencyService`, typically a :class:`repro.api.Session`.

Run with::

    python examples/agenda_sharing.py
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api import Cluster
from repro.api.results import RetrieveResult


class StaleAgendaError(RuntimeError):
    """Raised when a mutation is attempted on a known-stale agenda snapshot."""


@dataclass(frozen=True)
class AgendaEntry:
    """One agenda entry (a meeting / appointment)."""

    entry_id: int
    title: str
    start: float
    end: float
    participants: tuple

    def overlaps(self, other: "AgendaEntry") -> bool:
        """Whether the two entries overlap in time."""
        return self.start < other.end and other.start < self.end

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AgendaEntry":
        return cls(entry_id=payload["entry_id"], title=payload["title"],
                   start=payload["start"], end=payload["end"],
                   participants=tuple(payload["participants"]))


class SharedAgenda:
    """A shared agenda stored under one key of the replicated DHT.

    Parameters
    ----------
    service:
        The currency service (or :class:`repro.api.Session`) used for reads
        and writes.
    agenda_id:
        Identifier of the agenda; the DHT key is ``"agenda:<agenda_id>"``.
    require_current:
        When ``True`` (default), mutations refuse to proceed from a stale
        snapshot (no current replica available) by raising
        :class:`StaleAgendaError` instead of risking lost updates.
    """

    def __init__(self, service, agenda_id: str, *,
                 require_current: bool = True) -> None:
        self.service = service
        self.agenda_id = agenda_id
        self.require_current = require_current

    @property
    def key(self) -> str:
        """The DHT key under which the agenda is replicated."""
        return f"agenda:{self.agenda_id}"

    # ------------------------------------------------------------------- read
    def _snapshot(self) -> Tuple[List[AgendaEntry], RetrieveResult]:
        result = self.service.retrieve(self.key)
        if not result.found:
            return [], result
        entries = [AgendaEntry.from_dict(entry) for entry in result.data.get("entries", [])]
        return entries, result

    def entries(self) -> List[AgendaEntry]:
        """The agenda's entries, ordered by start time."""
        entries, _ = self._snapshot()
        return sorted(entries, key=lambda entry: (entry.start, entry.entry_id))

    def last_read_was_current(self) -> bool:
        """Whether the most recent read returned a certified-current replica."""
        _, result = self._snapshot()
        return result.is_current or not result.found

    # ------------------------------------------------------------------ write
    def _write(self, entries: List[AgendaEntry], next_id: int) -> None:
        payload = {"entries": [entry.to_dict() for entry in entries], "next_id": next_id}
        self.service.insert(self.key, payload)

    def _mutable_snapshot(self) -> Tuple[List[AgendaEntry], int]:
        entries, result = self._snapshot()
        if result.found and not result.is_current and self.require_current:
            raise StaleAgendaError(
                f"agenda {self.agenda_id!r}: no current replica available; refusing to "
                "mutate a stale snapshot")
        next_id = result.data.get("next_id", 0) if result.found else 0
        return entries, next_id

    def add_entry(self, title: str, start: float, end: float,
                  participants: Optional[List[str]] = None) -> AgendaEntry:
        """Add an entry and return it (with its assigned identifier)."""
        if end <= start:
            raise ValueError("an agenda entry must end after it starts")
        entries, next_id = self._mutable_snapshot()
        entry = AgendaEntry(entry_id=next_id, title=title, start=start, end=end,
                            participants=tuple(participants or ()))
        entries.append(entry)
        self._write(entries, next_id + 1)
        return entry

    def cancel_entry(self, entry_id: int) -> bool:
        """Remove an entry; returns ``True`` when it existed."""
        entries, next_id = self._mutable_snapshot()
        remaining = [entry for entry in entries if entry.entry_id != entry_id]
        if len(remaining) == len(entries):
            return False
        self._write(remaining, next_id)
        return True

    # ------------------------------------------------------------------ queries
    def conflicts(self) -> List[tuple]:
        """Pairs of overlapping entries (useful to detect double bookings)."""
        entries = self.entries()
        overlapping = []
        for index, first in enumerate(entries):
            for second in entries[index + 1:]:
                if first.overlaps(second):
                    overlapping.append((first, second))
        return overlapping

    def busy_between(self, start: float, end: float) -> bool:
        """Whether any entry overlaps the ``[start, end)`` window."""
        probe = AgendaEntry(entry_id=-1, title="", start=start, end=end, participants=())
        return any(entry.overlaps(probe) for entry in self.entries())

    def __len__(self) -> int:
        return len(self.entries())



def churn(network, rng: random.Random, departures: int, failure_probability: float = 0.3) -> None:
    """Apply some churn: peers depart (sometimes failing) and fresh peers join."""
    for _ in range(departures):
        peer = network.random_alive_peer()
        if rng.random() < failure_probability:
            network.fail_peer(peer)
        else:
            network.leave_peer(peer)
        network.join_peer()


def main() -> None:
    rng = random.Random(7)
    cluster = Cluster.build(peers=128, replicas=10, seed=7)
    session = cluster.session()
    agenda = SharedAgenda(session, "atlas-team")

    print("== a week of scheduling under churn ==")
    agenda.add_entry("Kick-off meeting", start=9.0, end=10.0,
                     participants=["alice", "bob"])
    churn(cluster.network, rng, departures=10)

    agenda.add_entry("Design review", start=11.0, end=12.5,
                     participants=["alice", "carol"])
    churn(cluster.network, rng, departures=10)

    agenda.add_entry("SIGMOD dry-run", start=14.0, end=15.0,
                     participants=["alice", "bob", "carol"])
    churn(cluster.network, rng, departures=10)

    print(f"entries after churn ({cluster.network.stats.failures} failures, "
          f"{cluster.network.stats.leaves} leaves, {cluster.network.stats.joins} joins):")
    for entry in agenda.entries():
        people = ", ".join(entry.participants)
        print(f"  [{entry.entry_id}] {entry.title:<18} {entry.start:>5.1f}–{entry.end:<5.1f} ({people})")

    print()
    print("== double-booking check ==")
    print(f"is 11:30–12:00 busy? {agenda.busy_between(11.5, 12.0)}")
    print(f"conflicting entries: {len(agenda.conflicts())}")

    print()
    print("== cancelling the dry-run ==")
    cancelled = agenda.cancel_entry(2)
    print(f"cancelled: {cancelled}; remaining entries: {len(agenda)}")

    result = session.retrieve(agenda.key)
    print()
    print(f"final read was certified current: {result.is_current} "
          f"(probed {result.replicas_inspected} of {cluster.replication.factor} replicas, "
          f"{result.message_count} messages)")
    print(f"session traffic for the whole week: {session.operations} operations, "
          f"{session.messages_sent} messages")
    session.close()


if __name__ == "__main__":
    main()
