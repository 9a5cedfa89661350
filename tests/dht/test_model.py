"""Unit tests for the abstract DHT model's route and lookup results."""

from __future__ import annotations

from repro.dht.model import LookupResult, RouteResult


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
