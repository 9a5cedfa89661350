"""Unit tests for the abstract DHT model: routes, responsibility log."""

from __future__ import annotations

from repro.dht.model import (
    LookupResult,
    ResponsibilityLog,
    ResponsibilityPeriod,
    RouteResult,
)


class TestRouteResult:
    def test_hops_is_path_length_minus_one(self):
        route = RouteResult(path=(1, 2, 3), responsible=3)
        assert route.hops == 2

    def test_single_node_path_has_zero_hops(self):
        route = RouteResult(path=(7,), responsible=7)
        assert route.hops == 0

    def test_message_count_includes_retries(self):
        route = RouteResult(path=(1, 2, 3), responsible=3, retries=2, timeouts=1)
        assert route.message_count == 4

    def test_results_are_tuples_in_field_order(self):
        route = RouteResult((1, 2), 2)
        assert tuple(route) == ((1, 2), 2, 0, 0)
        lookup = LookupResult("k", "h1", 5, 2, route)
        assert tuple(lookup) == ("k", "h1", 5, 2, route)
        assert lookup.hops == 1


class TestResponsibilityPeriod:
    def test_open_period_contains_later_times(self):
        period = ResponsibilityPeriod(peer=1, start=10.0)
        assert period.contains(10.0)
        assert period.contains(1e9)
        assert not period.contains(9.9)

    def test_closed_period_excludes_end(self):
        period = ResponsibilityPeriod(peer=1, start=10.0, end=20.0)
        assert period.contains(19.999)
        assert not period.contains(20.0)


class TestResponsibilityLog:
    def test_rsp_tracks_latest_owner(self):
        log = ResponsibilityLog()
        log.record("k", "h", peer=4, time=0.0)
        log.record("k", "h", peer=2, time=5.0)
        assert log.rsp("k", "h") == 2

    def test_prsp_is_previous_owner(self):
        log = ResponsibilityLog()
        log.record("k", "h", peer=4, time=0.0)
        log.record("k", "h", peer=2, time=5.0)
        log.record("k", "h", peer=3, time=8.0)
        log.record("k", "h", peer=1, time=12.0)
        assert log.prsp("k", "h") == 3

    def test_prsp_requires_two_periods(self):
        log = ResponsibilityLog()
        assert log.prsp("k", "h") is None
        log.record("k", "h", peer=4, time=0.0)
        assert log.prsp("k", "h") is None

    def test_duplicate_record_is_noop(self):
        log = ResponsibilityLog()
        log.record("k", "h", peer=4, time=0.0)
        log.record("k", "h", peer=4, time=3.0)
        assert len(log.periods("k", "h")) == 1

    def test_periods_are_half_open_and_contiguous(self):
        # Example 1 of the paper: p4 then p2 then p3 then p1.
        log = ResponsibilityLog()
        log.record("k", "h", peer=4, time=0.0)
        log.record("k", "h", peer=2, time=1.0)
        log.record("k", "h", peer=3, time=2.0)
        log.record("k", "h", peer=1, time=3.0)
        periods = log.periods("k", "h")
        assert [period.peer for period in periods] == [4, 2, 3, 1]
        assert [period.end for period in periods] == [1.0, 2.0, 3.0, None]

    def test_responsible_at_evaluates_mapping_function(self):
        log = ResponsibilityLog()
        log.record("k", "h", peer=4, time=0.0)
        log.record("k", "h", peer=2, time=1.0)
        log.record("k", "h", peer=3, time=2.0)
        assert log.responsible_at("k", "h", 0.5) == 4
        assert log.responsible_at("k", "h", 1.0) == 2
        assert log.responsible_at("k", "h", 99.0) == 3
        assert log.responsible_at("k", "h", -1.0) is None

    def test_unknown_key_returns_none(self):
        log = ResponsibilityLog()
        assert log.rsp("missing", "h") is None
        assert log.responsible_at("missing", "h", 0.0) is None
        assert log.periods("missing", "h") == []

    def test_tracked_lists_keys(self):
        log = ResponsibilityLog()
        log.record("k1", "h", peer=4, time=0.0)
        log.record("k2", "h", peer=4, time=0.0)
        assert set(log.tracked()) == {("k1", "h"), ("k2", "h")}

    def test_keys_are_tracked_per_hash_function(self):
        log = ResponsibilityLog()
        log.record("k", "h1", peer=4, time=0.0)
        log.record("k", "h2", peer=9, time=0.0)
        assert log.rsp("k", "h1") == 4
        assert log.rsp("k", "h2") == 9
