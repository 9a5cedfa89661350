"""Unit tests for run results and aggregation."""

from __future__ import annotations

import pytest

from repro.simulation.results import QueryObservation, RunResult


def observation(time=0.0, response_time=1.0, messages=10, inspected=2, found=True,
                is_current=True, bytes=0):
    return QueryObservation(time=time, key="k", response_time_s=response_time,
                            messages=messages, replicas_inspected=inspected,
                            found=found, is_current=is_current, bytes_sent=bytes)


class TestRunResult:
    def test_empty_result_aggregates_to_zero(self):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        assert result.query_count == 0
        assert result.avg_response_time_s == 0.0
        assert result.avg_messages == 0.0
        assert result.avg_bytes == 0.0
        assert result.avg_replicas_inspected == 0.0
        assert result.currency_rate == 0.0
        assert result.found_rate == 0.0

    def test_averages(self):
        result = RunResult(algorithm="brk", num_peers=10, num_replicas=5)
        result.record_query(observation(response_time=2.0, messages=10))
        result.record_query(observation(response_time=4.0, messages=20))
        assert result.avg_response_time_s == pytest.approx(3.0)
        assert result.avg_messages == pytest.approx(15.0)
        assert result.query_count == 2

    def test_currency_and_found_rates(self):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        result.record_query(observation(is_current=True, found=True))
        result.record_query(observation(is_current=False, found=True))
        result.record_query(observation(is_current=False, found=False))
        assert result.currency_rate == pytest.approx(1 / 3)
        assert result.found_rate == pytest.approx(2 / 3)

    def test_replicas_inspected_average(self):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        result.record_query(observation(inspected=1))
        result.record_query(observation(inspected=5))
        assert result.avg_replicas_inspected == pytest.approx(3.0)

    def test_summary_contains_all_metrics(self):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        result.record_query(observation())
        result.updates_performed = 7
        result.churn_events = 3
        result.failures = 1
        summary = result.summary()
        assert summary["queries"] == 1.0
        assert summary["updates"] == 7.0
        assert summary["churn_events"] == 3.0
        assert summary["failures"] == 1.0
        assert set(summary) >= {"avg_response_time_s", "avg_messages", "currency_rate"}


AVERAGES = [
    ("avg_response_time_s", "response_time", [0.1, 0.2, 0.7, 1.3]),
    ("avg_messages", "messages", [3, 8, 13, 21]),
    ("avg_bytes", "bytes", [512, 1024, 4096, 160]),
    ("avg_replicas_inspected", "inspected", [1, 5, 2, 6]),
]


@pytest.mark.parametrize("name, field, values", AVERAGES,
                         ids=[name for name, _, _ in AVERAGES])
class TestAverages:
    def test_average_is_the_sum_over_the_count(self, name, field, values):
        # Exactly sum / len, in record order: the experiment digests pin it.
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        for value in values:
            result.record_query(observation(**{field: value}))
        assert getattr(result, name) == sum(values) / len(values)

    def test_summary_reports_the_average(self, name, field, values):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        for value in values:
            result.record_query(observation(**{field: value}))
        assert result.summary()[name] == getattr(result, name)


class TestBytesAccounting:
    def test_bytes_default_to_zero(self):
        assert observation().bytes_sent == 0

    def test_avg_bytes_and_summary(self):
        result = RunResult(algorithm="ums-direct", num_peers=10, num_replicas=5)
        result.record_query(observation(bytes=1000))
        result.record_query(observation(bytes=3000))
        assert result.avg_bytes == pytest.approx(2000.0)
        assert result.summary()["avg_bytes"] == pytest.approx(2000.0)

    def test_observations_from_earlier_releases_deserialise(self):
        # Payloads recorded before bytes-per-op accounting lack the
        # ``bytes_sent`` field (and some the stale/flagged flags); they must
        # keep loading from the execution-layer run cache.
        legacy = {"time": 0.0, "key": "k", "response_time_s": 1.0,
                  "messages": 10, "replicas_inspected": 2,
                  "found": True, "is_current": True}
        rebuilt = QueryObservation.from_dict(legacy)
        assert rebuilt.bytes_sent == 0
        assert rebuilt.stale is False and rebuilt.flagged is False

    def test_round_trip_preserves_bytes(self):
        first = observation(bytes=4096)
        assert QueryObservation.from_dict(first.to_dict()) == first
