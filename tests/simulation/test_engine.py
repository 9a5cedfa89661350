"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(3.0, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_zero_delay_fires_after_callbacks_already_due_now(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, lambda: fired.append("zero-delay"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "zero-delay"]
        assert sim.now == 1.0

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]
        assert sim.now == 10.0

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_until_before_the_clock_is_refused(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)
        assert sim.now == 5.0
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1, 5.5, 10]


class TestSelfReschedulingCallbacks:
    def test_two_tickers_interleave(self):
        sim = Simulator()
        trail = []

        def ticker(name, period, ticks):
            def tick():
                trail.append((name, sim.now))
                if ticks > 1:
                    ticker(name, period, ticks - 1)
            sim.schedule(period, tick)

        ticker("fast", 1.0, 3)
        ticker("slow", 2.5, 3)
        sim.run()
        assert trail == [("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
                         ("fast", 3.0), ("slow", 5.0), ("slow", 7.5)]
