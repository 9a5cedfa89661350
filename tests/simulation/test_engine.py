"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

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
        with pytest.raises(SimulationError):
            sim.timeout(-0.5)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(index + 1.0, lambda index=index: fired.append(index))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step_on_empty_heap_returns_false(self):
        assert Simulator().step() is False


class TestEvents:
    def test_callback_on_already_triggered_event_fires_immediately(self):
        sim = Simulator()
        event = sim.timeout(0.0, "x")
        sim.run()
        seen = []
        event.add_callback(lambda fired: seen.append(fired.value))
        assert seen == ["x"]


class TestProcesses:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        trail = []

        def worker():
            trail.append(sim.now)
            yield sim.timeout(2.0)
            trail.append(sim.now)
            yield sim.timeout(3.0)
            trail.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trail == [0.0, 2.0, 5.0]

    def test_timeout_value_is_passed_back(self):
        sim = Simulator()
        received = []

        def worker():
            value = yield sim.timeout(1.0, value="tick")
            received.append(value)

        sim.process(worker())
        sim.run()
        assert received == ["tick"]

    def test_process_completion_is_an_event(self):
        sim = Simulator()

        def child():
            yield sim.timeout(4.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            results.append((sim.now, result))

        results = []
        sim.process(parent())
        sim.run()
        assert results == [(4.0, "done")]

    def test_process_requires_a_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_process_must_yield_events(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        trail = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trail.append((name, sim.now))

        sim.process(ticker("fast", 1.0))
        sim.process(ticker("slow", 2.5))
        sim.run()
        assert trail == [("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
                         ("fast", 3.0), ("slow", 5.0), ("slow", 7.5)]
