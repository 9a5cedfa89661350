#!/usr/bin/env python
"""Overlay selection through the overlay table.

The UMS/KTS services are DHT-agnostic: they only need the lookup service,
``put_h``/``get_h`` and responsibility notifications.  This example runs the
exact same insert/retrieve workload over every overlay in
:data:`repro.dht.registry.OVERLAYS` (Chord, CAN and Kademlia out of the box),
then adds a custom overlay at runtime and drives it through the same stack —
no service code changes anywhere.

Run with::

    python examples/overlay_selection.py
"""

from __future__ import annotations

from repro.api import Cluster
from repro.dht.chord import ChordRing
from repro.dht.registry import OVERLAYS


def exercise(protocol: str) -> None:
    """Insert, churn a little, retrieve — report the per-overlay costs."""
    cluster = Cluster.build(peers=60, replicas=8, protocol=protocol, seed=2007)
    with cluster.session() as session:
        session.insert("meeting-room", {"slot": "09:00", "owner": "alice"})
        # A bit of churn: the data and the timestamp counters must follow the
        # responsibility changes regardless of the routing substrate.
        for _ in range(6):
            cluster.network.leave_peer(cluster.network.random_alive_peer())
            cluster.network.join_peer()
        session.insert("meeting-room", {"slot": "14:00", "owner": "bob"})
        result = session.retrieve("meeting-room")
    print(f"  {protocol:<12} -> {result.data}  current? {result.is_current}, "
          f"{result.message_count} messages, "
          f"{result.replicas_inspected} replica(s) probed")


def main() -> None:
    print(f"overlays: {', '.join(sorted(OVERLAYS))}")
    print()

    print("== the same UMS workload over every overlay ==")
    for protocol in sorted(OVERLAYS):
        exercise(protocol)
    print()

    print("== adding a custom overlay at runtime ==")

    def build_eager_chord(*, bits, stabilization_interval, rng, **extra):
        # A Chord variant with instant stabilisation (no stale fingers).
        return ChordRing(bits=bits, stabilization_interval=0.0, rng=rng)

    OVERLAYS["chord-eager"] = build_eager_chord
    try:
        print(f"overlays: {', '.join(sorted(OVERLAYS))}")
        exercise("chord-eager")
    finally:
        del OVERLAYS["chord-eager"]


if __name__ == "__main__":
    main()
