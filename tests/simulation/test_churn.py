"""Unit tests for the churn process."""

from __future__ import annotations

import random

import pytest

from repro.dht.network import DHTNetwork
from repro.simulation.engine import Simulator
from repro.simulation.churn import ChurnProcess
from repro.simulation.processes import exponential_interval


def run_churn(rate=0.5, failure_rate=0.2, duration=200.0, num_peers=40, seed=1,
              min_population=2):
    network = DHTNetwork.build(num_peers, seed=seed)
    sim = Simulator()
    churn = ChurnProcess(sim, network, rate_per_s=rate, failure_rate=failure_rate,
                         rng=random.Random(seed + 1), until=duration,
                         min_population=min_population)
    sim.run(until=duration)
    return network, churn


class TestChurnProcess:
    def test_population_stays_constant(self):
        network, churn = run_churn()
        assert network.size == 40
        assert churn.event_count > 0

    def test_event_count_matches_rate(self):
        _, churn = run_churn(rate=0.5, duration=200.0)
        # Expect about 100 events.
        assert 60 <= churn.event_count <= 140

    def test_failure_fraction_tracks_failure_rate(self):
        _, churn = run_churn(rate=2.0, failure_rate=0.5, duration=300.0)
        fraction = churn.failure_count / churn.event_count
        assert 0.35 <= fraction <= 0.65

    def test_zero_failure_rate_never_fails(self):
        network, churn = run_churn(failure_rate=0.0)
        assert churn.failure_count == 0
        assert network.stats.failures == 0

    def test_all_failures_when_rate_is_one(self):
        network, churn = run_churn(failure_rate=1.0)
        assert churn.failure_count == churn.event_count
        assert network.stats.leaves == 0

    def test_departed_and_joined_peers_are_recorded(self):
        network, churn = run_churn()
        for event in churn.events:
            assert network.is_alive(event.joined_peer) or \
                network.protocol.departure_reason(event.joined_peer) is not None
            assert not network.is_alive(event.departed_peer) or \
                event.departed_peer != event.joined_peer

    def test_min_population_floor_is_respected(self):
        network, churn = run_churn(num_peers=3, rate=5.0, duration=50.0,
                                   min_population=3)
        assert network.size == 3
        assert churn.event_count == 0

    def test_no_departure_after_the_horizon(self):
        _, churn = run_churn(rate=0.5, duration=100.0)
        assert churn.events
        assert all(event.time <= 100.0 for event in churn.events)
        churn.sim.run(until=1000.0)
        assert all(event.time <= 100.0 for event in churn.events)

    def test_seeded_schedule_matches_a_hand_drawn_reference(self):
        _, churn = run_churn(rate=0.5, failure_rate=0.3, duration=200.0, seed=3)
        # Reference: the churn stream draws an interval, then a failure flag
        # at each departure, then the next interval, and so on.
        rng, clock, expected = random.Random(4), 0.0, []
        while True:
            clock += exponential_interval(0.5, rng)
            if clock > 200.0:
                break
            expected.append((clock, rng.random() < 0.3))
        assert [(event.time, event.failed) for event in churn.events] == expected
        assert len(expected) > 50

    def test_zero_rate_schedules_nothing(self):
        network = DHTNetwork.build(10, seed=7)
        sim = Simulator()
        churn = ChurnProcess(sim, network, rate_per_s=0.0, failure_rate=0.0,
                             rng=random.Random(8))
        sim.run(until=100.0)
        assert churn.event_count == 0

    def test_invalid_failure_rate_rejected(self):
        network = DHTNetwork.build(10, seed=9)
        with pytest.raises(ValueError):
            ChurnProcess(Simulator(), network, rate_per_s=1.0, failure_rate=2.0,
                         rng=random.Random(10))

    def test_network_clock_follows_simulation_time(self):
        network, churn = run_churn(rate=0.2, duration=100.0)
        assert network.now > 0.0
        assert network.now <= 100.0
