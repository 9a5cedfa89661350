"""Tests for the reservation book application of ``examples/reservation_management.py``."""

from __future__ import annotations

import pytest

from test_examples import load_example

example = load_example("reservation_management.py")
ReservationBook = example.ReservationBook
ReservationError = example.ReservationError
SeatAlreadyTaken = example.SeatAlreadyTaken


@pytest.fixture
def book(small_stack):
    book = ReservationBook(small_stack.service("ums"), "venue", capacity=5)
    book.initialize()
    return book


class TestConfiguration:
    def test_capacity_builds_sequential_seats(self, small_stack):
        book = ReservationBook(small_stack.service("ums"), "v", capacity=3)
        assert book.seats == ["seat-0", "seat-1", "seat-2"]

    def test_explicit_seat_list(self, small_stack):
        book = ReservationBook(small_stack.service("ums"), "v", seats=["A1", "A2"])
        assert book.seats == ["A1", "A2"]

    def test_missing_configuration_rejected(self, small_stack):
        with pytest.raises(ValueError):
            ReservationBook(small_stack.service("ums"), "v")
        with pytest.raises(ValueError):
            ReservationBook(small_stack.service("ums"), "v", capacity=0)

    def test_duplicate_seats_rejected(self, small_stack):
        with pytest.raises(ValueError):
            ReservationBook(small_stack.service("ums"), "v", seats=["A1", "A1"])


class TestReservations:
    def test_uninitialised_book_rejects_operations(self, small_stack):
        book = ReservationBook(small_stack.service("ums"), "ghost", capacity=2)
        with pytest.raises(ReservationError):
            book.reserve("alice")

    def test_reserve_specific_seat(self, book):
        assert book.reserve("alice", "seat-2") == "seat-2"
        assert book.holder_of("seat-2") == "alice"

    def test_reserve_first_available(self, book):
        assert book.reserve("alice") == "seat-0"
        assert book.reserve("bob") == "seat-1"

    def test_double_booking_rejected(self, book):
        book.reserve("alice", "seat-0")
        with pytest.raises(SeatAlreadyTaken) as excinfo:
            book.reserve("bob", "seat-0")
        assert excinfo.value.holder == "alice"

    def test_unknown_seat_rejected(self, book):
        with pytest.raises(ReservationError):
            book.reserve("alice", "balcony-99")

    def test_full_venue_rejected(self, book):
        for index in range(5):
            book.reserve(f"customer-{index}")
        with pytest.raises(ReservationError):
            book.reserve("late")

    def test_occupancy_and_available_seats(self, book):
        book.reserve("alice")
        book.reserve("bob")
        assert book.occupancy() == pytest.approx(0.4)
        assert book.available_seats() == ["seat-2", "seat-3", "seat-4"]

    def test_cancel_frees_the_seat(self, book):
        seat = book.reserve("alice")
        assert book.cancel(seat) is True
        assert book.cancel(seat) is False
        assert book.holder_of(seat) is None
        assert seat in book.available_seats()

    def test_reservations_survive_churn(self, small_stack, book):
        book.reserve("alice", "seat-3")
        for _ in range(12):
            small_stack.network.leave_peer(small_stack.network.random_alive_peer())
            small_stack.network.join_peer()
        assert book.holder_of("seat-3") == "alice"
        assert book.reserve("bob") == "seat-0"

    def test_stale_state_is_refused(self, small_stack, book):
        book.reserve("alice")
        holders = frozenset(small_stack.network.responsible_peer(book.key, h)
                            for h in small_stack.replication)
        small_stack.service("ums").insert(book.key, {"seats": book.seats, "reservations": {}},
                               unreachable=holders)
        with pytest.raises(ReservationError):
            book.reserve("bob")
