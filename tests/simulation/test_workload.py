"""Unit tests for the workload: keys, payloads and the paper's schedules.

The paper's update and query schedules are the ``uniform`` scenario's
``update_schedule`` / ``query_schedule``.
"""

from __future__ import annotations

import random

import pytest

from repro.simulation.scenarios import SCENARIOS, Scenario
from repro.simulation.workload import default_keys, payload_for


def uniform() -> Scenario:
    return Scenario(SCENARIOS["uniform"])


class TestKeysAndPayloads:
    def test_default_keys_are_named_sequentially(self):
        assert default_keys(3) == ["item-0", "item-1", "item-2"]

    def test_default_keys_custom_prefix(self):
        assert default_keys(2, prefix="doc") == ["doc-0", "doc-1"]

    def test_default_keys_requires_positive_count(self):
        with pytest.raises(ValueError):
            default_keys(0)

    def test_payload_is_deterministic_and_versioned(self):
        assert payload_for("item-1", 4) == payload_for("item-1", 4)
        assert payload_for("item-1", 4) != payload_for("item-1", 5)
        assert payload_for("item-1", 4)["sequence"] == 4


class TestUniformUpdateSchedule:
    def test_schedule_is_sorted_and_within_duration(self):
        events = uniform().update_schedule(default_keys(5), 60.0, 600.0,
                                           random.Random(1))
        times = [event.time for event in events]
        assert times == sorted(times)
        assert all(0.0 < time < 600.0 for time in times)

    def test_event_count_scales_with_rate_and_keys(self):
        events = uniform().update_schedule(default_keys(10), 6.0, 3600.0,
                                           random.Random(2))
        # 10 keys * 6 updates/hour * 1 hour = 60 expected events.
        assert 35 <= len(events) <= 90

    def test_zero_rate_produces_no_events(self):
        assert uniform().update_schedule(default_keys(3), 0.0, 1000.0,
                                         random.Random(3)) == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            uniform().update_schedule(default_keys(3), -1.0, 1000.0,
                                      random.Random(3))

    def test_every_key_can_receive_updates(self):
        events = uniform().update_schedule(default_keys(4), 3600.0, 100.0,
                                           random.Random(4))
        assert {event.key for event in events} == set(default_keys(4))


class TestUniformQuerySchedule:
    def test_schedule_has_requested_number_of_queries(self):
        events = uniform().query_schedule(default_keys(5), 30, 1800.0,
                                          random.Random(5))
        assert len(events) == 30

    def test_queries_are_sorted_and_uniform_over_the_run(self):
        events = uniform().query_schedule(default_keys(5), 200, 1000.0,
                                          random.Random(6))
        times = [event.time for event in events]
        assert times == sorted(times)
        assert min(times) < 200.0 and max(times) > 800.0

    def test_queries_target_known_keys(self):
        keys = default_keys(3)
        events = uniform().query_schedule(keys, 50, 100.0, random.Random(7))
        assert {event.key for event in events} <= set(keys)

    def test_each_key_is_drawn_right_after_its_time(self):
        keys = default_keys(4)
        rng = random.Random(8)
        drawn = []
        for _ in range(20):
            time = rng.uniform(0.0, 500.0)
            drawn.append((time, rng.choice(keys)))
        events = uniform().query_schedule(keys, 20, 500.0, random.Random(8))
        assert [(event.time, event.key) for event in events] == sorted(drawn)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            uniform().query_schedule(default_keys(3), 0, 100.0, random.Random(8))
        with pytest.raises(ValueError):
            uniform().query_schedule([], 5, 100.0, random.Random(8))
