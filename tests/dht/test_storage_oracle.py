"""The replica store against a plain reference model.

:class:`~repro.dht.storage.LocalStore` keeps one insertion-ordered dict; the
reference here is a dict too, and answers every span query by a stable sort
of its entries by point, walking up from the span's lower bound.  A stream
of accepted, refused and unreconciled puts, deletes, re-puts and clears
drives both; after every step the two must agree on ``values()`` order,
``len``, ``get``, ``replicas_of``, span queries (wrapping and whole-space
ones included) and the delta-sync pair ``timestamp_summary`` /
``entries_newer_than``.

The network's handover is checked against the same reference: on the
overlays without contiguous responsibility (Kademlia, CAN) a join ships
each previous owner's stolen entries, and a leave ships every entry of the
departing peer, in ascending point order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.core.timestamps import Timestamp
from repro.dht.storage import (
    LocalStore,
    StoredValue,
    advanced_past,
    reconciliation_token,
)

KEYS = ["a", "b", "c", "d"]
HASH_NAMES = ["hr-0", "hr-1", "hr-2"]
#: A small point space, so points collide and spans wrap often.
SPACE = 16


class ReferenceStore:
    """A dict of entries, queried by a stable sort by point."""

    def __init__(self):
        self.entries = {}

    def put(self, value, reconcile):
        index = (value.hash_name, value.key)
        if reconcile and not value.is_newer_than(self.entries.get(index)):
            return False
        self.entries[index] = value
        return True

    def in_span(self, lo, hi):
        by_point = sorted(self.entries.values(), key=lambda entry: entry.point)
        if lo == hi:
            return by_point
        if lo < hi:
            return [entry for entry in by_point if lo < entry.point <= hi]
        return ([entry for entry in by_point if entry.point > lo]
                + [entry for entry in by_point if entry.point <= hi])


def make_entry(key, hash_name, point, kind, value):
    stamp = dict(ts={"timestamp": Timestamp(key, value)}, version={"version": value},
                 none={})[kind]
    return StoredValue(key=key, data=(kind, value), hash_name=hash_name, point=point,
                       **stamp)


spans = st.tuples(st.integers(0, SPACE - 1), st.integers(0, SPACE - 1))
puts = st.tuples(st.just("put"), st.sampled_from(KEYS), st.sampled_from(HASH_NAMES),
                 st.integers(0, SPACE - 1), st.sampled_from(["ts", "version", "none"]),
                 st.integers(0, 4), st.booleans())
deletes = st.tuples(st.just("delete"), st.sampled_from(KEYS), st.sampled_from(HASH_NAMES))
steps = st.lists(st.tuples(st.one_of(puts, puts, puts, deletes, st.just(("clear",))),
                           st.lists(spans, min_size=1, max_size=3)),
                 min_size=1, max_size=40)


def check_agreement(store, reference, queried, previous_summary):
    assert len(store) == len(reference.entries)
    assert all(a is b for a, b in zip(store.values(), reference.entries.values(),
                                      strict=True))
    for key in KEYS:
        for hash_name in HASH_NAMES:
            assert store.get(hash_name, key) is reference.entries.get((hash_name, key))
        expected = [entry for entry in reference.entries.values() if entry.key == key]
        assert all(a is b for a, b in zip(store.replicas_of(key), expected, strict=True))
    whole = queried[0][0]
    for lo, hi in [*queried, (whole, whole)]:
        expected = reference.in_span(lo, hi)
        assert all(a is b for a, b in zip(store.entries_in_span(lo, hi), expected,
                                          strict=True)), (lo, hi)
        summary = store.timestamp_summary(lo, hi)
        assert list(summary.items()) == [((entry.hash_name, entry.key),
                                          reconciliation_token(entry))
                                         for entry in expected]
        newer = [entry for entry in expected
                 if (entry.hash_name, entry.key) not in previous_summary
                 or advanced_past(entry, previous_summary[entry.hash_name, entry.key])]
        assert all(a is b for a, b in zip(
            store.entries_newer_than(lo, hi, previous_summary), newer, strict=True))


@given(steps=steps)
@settings(max_examples=200, deadline=None)
def test_the_store_answers_as_the_reference_does(steps):
    store, reference = LocalStore(), ReferenceStore()
    previous_summary = {}
    for operation, queried in steps:
        if operation[0] == "put":
            _, key, hash_name, point, kind, value, reconcile = operation
            entry = make_entry(key, hash_name, point, kind, value)
            assert store.put(entry, reconcile=reconcile) == reference.put(entry, reconcile)
        elif operation[0] == "delete":
            _, key, hash_name = operation
            assert store.delete(hash_name, key) is reference.entries.pop((hash_name, key),
                                                                         None)
        else:
            store.clear()
            reference.entries.clear()
        check_agreement(store, reference, queried, previous_summary)
        previous_summary = store.timestamp_summary(0, 0)


def record_handovers(network, monkeypatch):
    """Record the entries each handover ships, one list per handover."""
    shipped = []
    hand_over, ship = network._hand_over_entries, network._ship

    def hand_over_recorded(previous_owner, *, to_peer):
        shipped.append((previous_owner, []))
        hand_over(previous_owner, to_peer=to_peer)

    def ship_recorded(entry, to_peer):
        shipped[-1][1].append(entry)
        ship(entry, to_peer)

    monkeypatch.setattr(network, "_hand_over_entries", hand_over_recorded)
    monkeypatch.setattr(network, "_ship", ship_recorded)
    return shipped


def by_point(entries):
    return sorted(entries, key=lambda entry: entry.point)


@pytest.mark.parametrize("name", ["kademlia", "can"])
@given(seed=st.integers(min_value=0, max_value=1 << 16),
       churn=st.lists(st.sampled_from(["join", "leave"]), min_size=1, max_size=8))
@settings(max_examples=15, deadline=None)
def test_handover_ships_in_ascending_point_order(name, seed, churn):
    cluster = Cluster.build(peers=12, protocol=name, seed=seed)
    network = cluster.network
    cluster.service("ums").insert_many([(f"key-{index}", index) for index in range(24)])
    with pytest.MonkeyPatch.context() as monkeypatch:
        shipped = record_handovers(network, monkeypatch)
        for action in churn:
            before = {peer: network.peer(peer).store.values()
                      for peer in network.alive_peer_ids()}
            shipped.clear()
            if action == "join":
                newcomer = network.join_peer()
                responsible_for = network.protocol.responsible_for
                for previous_owner, entries in shipped:
                    assert entries == [entry for entry in by_point(before[previous_owner])
                                       if responsible_for(entry.point) == newcomer]
            else:
                victim = network.random_alive_peer()
                shipped.append((victim, []))
                network.leave_peer(victim)
                assert shipped == [(victim, by_point(before[victim]))]
