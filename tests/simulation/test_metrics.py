"""Unit tests for the sampled time series."""

from __future__ import annotations

import pytest

from repro.simulation.metrics import TimeSeries


class TestTimeSeries:
    def test_record_and_read_back(self):
        series = TimeSeries("pt")
        series.record(0.0, 1.0)
        series.record(5.0, 0.8)
        assert series.samples() == ((0.0, 1.0), (5.0, 0.8))
        assert series.values() == (1.0, 0.8)
        assert series.times() == (0.0, 5.0)
        assert len(series) == 2

    def test_out_of_order_samples_rejected(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_empty_series(self):
        series = TimeSeries()
        assert series.samples() == ()
        assert len(series) == 0
