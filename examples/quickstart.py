#!/usr/bin/env python
"""Quickstart: current-replica retrieval through the unified client API.

This example builds a small Chord-based cluster through ``Cluster.build`` —
the one construction path of :mod:`repro.api` — and shows the three
behaviours the paper is about:

1. a plain insert/retrieve returns the current replica and *knows* it is
   current (thanks to the KTS timestamp);
2. an update that cannot reach some replica holders leaves stale replicas
   behind, yet UMS still returns the current one — and still knows;
3. the BRK baseline (version numbers) must fetch every replica and cannot
   tell which replica is current after concurrent updates — and both
   algorithms answer through the *same* service interface with the *same*
   result types, so the comparison is configuration, not code.

Run with::

    python examples/quickstart.py

The cluster runs unchanged over any overlay in ``repro.dht.registry``'s
``OVERLAYS`` (pass ``protocol="can"`` / ``"kademlia"``), and any currency
service in ``repro.api.services``'s ``SERVICES``; see
``examples/overlay_selection.py`` and ``examples/batched_operations.py``.
"""

from __future__ import annotations

from repro.api import Cluster


def main() -> None:
    cluster = Cluster.build(peers=64, replicas=10, seed=2007)
    network = cluster.network

    print(f"cluster: {cluster!r}")
    print(f"replication factor |Hr| = {cluster.replication.factor}")
    print()

    # ------------------------------------------------------------------ 1. basic
    print("== 1. insert / retrieve through a session ==")
    with cluster.session() as session:
        insert = session.insert("meeting-room", {"slot": "09:00", "owner": "alice"})
        print(f"inserted with timestamp {insert.timestamp} "
              f"({insert.replicas_written}/{insert.replicas_attempted} replicas, "
              f"{insert.message_count} messages)")
        result = session.retrieve("meeting-room")
        print(f"retrieved {result.data} — current? {result.is_current}, "
              f"probed {result.replicas_inspected} replica(s), "
              f"{result.message_count} messages")
        print(f"session tally: {session.operations} operations, "
              f"{session.messages_sent} messages")
    print()

    # --------------------------------------------- 2. update with unreachable peers
    print("== 2. update that misses some replica holders ==")
    # Pretend two replica holders are unreachable at update time: their replicas
    # keep the *old* value (the paper's motivating scenario).
    holders = {network.responsible_peer("meeting-room", h) for h in cluster.replication}
    unreachable = frozenset(list(holders)[:2])
    with cluster.session() as session:
        session.insert("meeting-room", {"slot": "14:00", "owner": "bob"},
                       unreachable=unreachable)
        print(f"update reached {len(holders) - len(unreachable)} of {len(holders)} "
              "responsible peers")
        result = session.retrieve("meeting-room")
        print(f"retrieved {result.data} — current? {result.is_current}, "
              f"probed {result.replicas_inspected} replica(s)")
    print(f"probability of currency and availability p_t ≈ "
          f"{cluster.currency_probability('meeting-room'):.2f}")
    print()

    # ------------------------------------------------------------- 3. BRK baseline
    print("== 3. the BRK baseline under concurrent updates ==")
    brk = cluster.session(service="brk")
    initial = brk.insert("shared-doc", {"rev": "draft-by-alice"})
    # Two peers update concurrently: both observed version 1 before writing, so
    # both write version 2 — and their messages reach the replica holders in
    # different orders (here: bob's update does not reach half of the holders),
    # so replicas with the same version end up holding different data.
    doc_holders = sorted({network.responsible_peer("shared-doc", h)
                          for h in cluster.replication})
    brk_service = cluster.service("brk")
    first = brk_service.insert("shared-doc", {"rev": "alice-final"},
                               observed_version=initial.version)
    second = brk_service.insert("shared-doc", {"rev": "bob-final"},
                                observed_version=initial.version,
                                unreachable=frozenset(doc_holders[::2]))
    print(f"two concurrent updates both produced version {first.version} == {second.version}")
    outcome = brk.retrieve("shared-doc")
    print(f"BRK returned {outcome.data} after inspecting {outcome.replicas_inspected} "
          f"replicas ({outcome.message_count} messages); ambiguous? {outcome.ambiguous}")
    brk.close()

    # UMS handles the same race: the insert that obtained the later timestamp wins
    # everywhere, and retrieve certifies it.
    with cluster.session() as session:
        session.insert("shared-doc-ums", {"rev": "alice-final"})
        session.insert("shared-doc-ums", {"rev": "bob-final"})
        ums_outcome = session.retrieve("shared-doc-ums")
    print(f"for comparison, UMS converges on {ums_outcome.data} with "
          f"{ums_outcome.message_count} messages and a currency guarantee "
          f"(current? {ums_outcome.is_current})")


if __name__ == "__main__":
    main()
