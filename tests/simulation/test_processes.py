"""Unit tests for the Poisson arrival helpers."""

from __future__ import annotations

import random

import pytest

from repro.simulation.processes import exponential_interval, poisson_arrival_times


class TestExponentialInterval:
    def test_intervals_are_positive(self):
        rng = random.Random(1)
        assert all(exponential_interval(2.0, rng) > 0 for _ in range(100))

    def test_mean_matches_rate(self):
        rng = random.Random(2)
        samples = [exponential_interval(0.5, rng) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 2.0) < 0.15

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            exponential_interval(0.0, random.Random(1))


class TestPoissonArrivalTimes:
    def test_times_are_sorted_and_within_duration(self):
        times = poisson_arrival_times(0.5, 100.0, random.Random(3))
        assert times == sorted(times)
        assert all(0.0 < time < 100.0 for time in times)

    def test_count_scales_with_rate(self):
        rng = random.Random(4)
        count = len(poisson_arrival_times(1.0, 1000.0, rng))
        assert 850 <= count <= 1150

    def test_zero_duration_has_no_arrivals(self):
        assert poisson_arrival_times(1.0, 0.0, random.Random(5)) == []

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(1.0, -1.0, random.Random(5))

