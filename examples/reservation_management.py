#!/usr/bin/env python
"""Reservation management (paper Section 1) — seats, churn and failed updates.

A 20-seat venue takes reservations from peers all over the network.  The
example demonstrates:

* normal operation: customers reserve seats, the book never double-books;
* an update that misses some replica holders (the paper's motivating fault):
  stale replicas remain in the DHT, yet subsequent reads keep returning the
  current book because UMS recognises the latest timestamp;
* heavy churn, after which the reservation book is still intact.

:class:`ReservationBook` keeps the book under one DHT key and follows the
read-modify-write pattern of the other applications, refusing to mutate when
no current replica is available.  It talks to any
:class:`repro.api.CurrencyService`, typically a :class:`repro.api.Session`.

Run with::

    python examples/reservation_management.py
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.api import Cluster


class ReservationError(RuntimeError):
    """Base error for reservation failures."""


class SeatAlreadyTaken(ReservationError):
    """The requested seat is already reserved by someone else."""

    def __init__(self, seat: str, holder: str):
        super().__init__(f"seat {seat!r} is already reserved by {holder!r}")
        self.seat = seat
        self.holder = holder


class ReservationBook:
    """Seat reservations for one resource, replicated in the DHT."""

    def __init__(self, service, resource_id: str, *,
                 seats: Optional[List[str]] = None, capacity: Optional[int] = None) -> None:
        if seats is None:
            if capacity is None or capacity < 1:
                raise ValueError("provide either an explicit seat list or a capacity >= 1")
            seats = [f"seat-{index}" for index in range(capacity)]
        if len(set(seats)) != len(seats):
            raise ValueError("seat identifiers must be unique")
        self.service = service
        self.resource_id = resource_id
        self.seats = list(seats)

    @property
    def key(self) -> str:
        """The DHT key under which the reservation book is replicated."""
        return f"reservation:{self.resource_id}"

    # ------------------------------------------------------------------ state
    def initialize(self) -> None:
        """Create an empty reservation book in the DHT."""
        self.service.insert(self.key, {"seats": self.seats, "reservations": {}})

    def _state(self) -> Dict[str, Any]:
        result = self.service.retrieve(self.key)
        if not result.found:
            raise ReservationError(
                f"reservation book {self.resource_id!r} has not been initialised")
        if not result.is_current:
            raise ReservationError(
                f"reservation book {self.resource_id!r}: current state unavailable")
        return dict(result.data)

    def reservations(self) -> Dict[str, str]:
        """Mapping seat -> holder for all reserved seats."""
        return dict(self._state()["reservations"])

    def available_seats(self) -> List[str]:
        """Seats that are not currently reserved, in seat order."""
        taken = set(self.reservations())
        return [seat for seat in self.seats if seat not in taken]

    def occupancy(self) -> float:
        """Fraction of seats currently reserved."""
        return len(self.reservations()) / len(self.seats)

    def holder_of(self, seat: str) -> Optional[str]:
        """Who holds ``seat``, or ``None`` when it is free."""
        return self.reservations().get(seat)

    # ------------------------------------------------------------------ writes
    def reserve(self, customer: str, seat: Optional[str] = None) -> str:
        """Reserve ``seat`` (or the first available one) for ``customer``.

        Returns the reserved seat identifier; raises :class:`SeatAlreadyTaken`
        when the requested seat is occupied and :class:`ReservationError` when
        the venue is full.
        """
        state = self._state()
        reservations: Dict[str, str] = dict(state["reservations"])
        if seat is None:
            free = [candidate for candidate in self.seats if candidate not in reservations]
            if not free:
                raise ReservationError(f"no seats left in {self.resource_id!r}")
            seat = free[0]
        if seat not in self.seats:
            raise ReservationError(f"unknown seat {seat!r}")
        if seat in reservations:
            raise SeatAlreadyTaken(seat, reservations[seat])
        reservations[seat] = customer
        state["reservations"] = reservations
        self.service.insert(self.key, state)
        return seat

    def cancel(self, seat: str) -> bool:
        """Cancel the reservation of ``seat``; returns ``True`` when it was reserved."""
        state = self._state()
        reservations: Dict[str, str] = dict(state["reservations"])
        if seat not in reservations:
            return False
        del reservations[seat]
        state["reservations"] = reservations
        self.service.insert(self.key, state)
        return True



def main() -> None:
    rng = random.Random(21)
    cluster = Cluster.build(peers=150, replicas=12, seed=21)
    network, session = cluster.network, cluster.session()

    book = ReservationBook(session, "opera-house", capacity=20)
    book.initialize()

    print("== customers reserve seats ==")
    customers = [f"customer-{index}" for index in range(12)]
    for customer in customers:
        seat = book.reserve(customer)
        print(f"  {customer:<12} -> {seat}")
    print(f"occupancy: {book.occupancy():.0%}, free seats: {len(book.available_seats())}")
    print()

    print("== double booking is refused ==")
    try:
        book.reserve("latecomer", seat="seat-0")
    except SeatAlreadyTaken as error:
        print(f"  refused: {error}")
    print()

    print("== an update misses two replica holders ==")
    holders = {network.responsible_peer(book.key, h) for h in cluster.replication}
    unreachable = frozenset(list(holders)[:2])
    state = session.retrieve(book.key).data
    state["reservations"]["seat-19"] = "vip-guest"
    session.insert(book.key, dict(state), unreachable=unreachable)
    print(f"  update reached {len(holders) - len(unreachable)}/{len(holders)} replica holders")
    print(f"  p_t after the partial update: {cluster.currency_probability(book.key):.2f}")
    print(f"  seat-19 is now held by: {book.holder_of('seat-19')}")
    print()

    print("== heavy churn, then business as usual ==")
    for _ in range(60):
        peer = network.random_alive_peer()
        if rng.random() < 0.4:
            network.fail_peer(peer)
        else:
            network.leave_peer(peer)
        network.join_peer()
    print(f"  churn: {network.stats.failures} failures, {network.stats.leaves} leaves")
    seat = book.reserve("after-churn-customer")
    print(f"  new reservation after churn: {seat}")
    print(f"  reservations intact: {len(book.reservations())} seats held, "
          f"occupancy {book.occupancy():.0%}")
    result = session.retrieve(book.key)
    print(f"  final read certified current: {result.is_current} "
          f"({result.replicas_inspected} replicas probed)")
    session.close()


if __name__ == "__main__":
    main()
