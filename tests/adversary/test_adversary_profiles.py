"""Unit tests for the adversarial fault profiles and the timestamp liar."""

from __future__ import annotations

import random

import pytest

from repro.simulation.adversary import (
    CAPTURE_MODES,
    STRATEGIES,
    ByzantineTimestamps,
    EclipseAttack,
    TimestampLiar,
    byzantine_scenario_spec,
)
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec, build_fault
from repro.simulation.scenarios.faults import FAULT_PROFILES


class TestTimestampLiar:
    def test_honest_peer_passes_through(self):
        liar = TimestampLiar()
        liar.corrupt([7], "stale-replay")
        assert liar(3, "k", 5) == 5
        assert liar(3, "k", None) is None
        assert liar.lies_served == 0

    def test_stale_replay_freezes_the_first_value_per_key(self):
        liar = TimestampLiar()
        liar.corrupt([7], "stale-replay")
        assert liar(7, "a", 3) == 3
        assert liar(7, "a", 9) == 3   # later updates are hidden
        assert liar(7, "b", 5) == 5   # per-key freeze
        assert liar.lies_served == 3

    def test_stale_replay_freezes_none(self):
        liar = TimestampLiar()
        liar.corrupt([7], "stale-replay")
        assert liar(7, "a", None) is None
        assert liar(7, "a", 4) is None

    def test_max_lag_reports_bounded_staleness(self):
        liar = TimestampLiar()
        liar.corrupt([7], "max-lag", lag=2)
        assert liar(7, "a", 10) == 8
        assert liar(7, "a", 2) is None     # floored at "no timestamp yet"
        assert liar(7, "a", None) is None

    def test_random_lie_stays_in_range_and_uses_its_own_rng(self):
        liar = TimestampLiar()
        liar.corrupt([7], "random-lie", lag=1, rng=random.Random(3))
        for _ in range(50):
            value = liar(7, "a", 4)
            assert value is None or 1 <= value <= 5

    def test_random_lie_requires_an_rng(self):
        with pytest.raises(ValueError, match="random-lie"):
            TimestampLiar().corrupt([1], "random-lie")

    def test_unknown_strategy_and_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            TimestampLiar().corrupt([1], "gaslight")
        with pytest.raises(ValueError, match="lag"):
            TimestampLiar().corrupt([1], "max-lag", lag=-1)


class TestProfileValidation:
    @pytest.mark.parametrize("bad", [
        dict(fraction=-0.1), dict(fraction=1.5), dict(strategy="nope"),
        dict(lag=-1), dict(at=2.0),
    ])
    def test_byzantine_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            ByzantineTimestamps(**bad)

    @pytest.mark.parametrize("bad", [
        dict(point=1.0), dict(point=-0.1), dict(count=0), dict(at=-0.5),
        dict(mode="nope"),
    ])
    def test_eclipse_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            EclipseAttack(**bad)

    def test_strategies_and_modes_are_sorted_public_constants(self):
        assert set(STRATEGIES) == {"stale-replay", "max-lag", "random-lie"}
        assert CAPTURE_MODES == tuple(sorted(CAPTURE_MODES))


class TestRegistration:
    def test_byzantine_kinds_join_the_shared_fault_table(self):
        assert FAULT_PROFILES["byzantine-timestamps"] is ByzantineTimestamps
        assert FAULT_PROFILES["eclipse"] is EclipseAttack

    def test_adversarial_scenarios_registered(self):
        names = sorted(SCENARIOS)
        for name in ("byzantine-timestamps", "eclipse", "geo-latency"):
            assert name in names


class _FakeSim:
    """Captures scheduled callbacks so a profile can be fired in isolation."""

    def __init__(self):
        self.scheduled = []
        self.now = 0.0

    def schedule(self, time, callback):
        self.scheduled.append((time, callback))

    def fire_all(self):
        for time, callback in self.scheduled:
            self.now = time
            callback()


class TestFractionZeroInertness:
    def test_fire_consumes_no_randomness_and_logs_nothing(self, small_stack):
        profile = ByzantineTimestamps(fraction=0.0)
        sim, log, rng = _FakeSim(), [], random.Random(5)
        before = rng.getstate()
        # cluster=None would raise inside fire() if it tried to install a
        # liar — reaching the end without an error pins the early return.
        profile.install(sim, network=small_stack.network, cost_model=None,
                        rng=rng, duration_s=100.0, log=log, cluster=None)
        sim.fire_all()
        assert rng.getstate() == before
        assert log == []

    def test_missing_cluster_raises_when_the_attack_is_real(self, small_stack):
        profile = ByzantineTimestamps(fraction=0.5)
        sim, log = _FakeSim(), []
        profile.install(sim, network=small_stack.network, cost_model=None,
                        rng=random.Random(5), duration_s=100.0, log=log,
                        cluster=None)
        with pytest.raises(ValueError, match="cluster"):
            sim.fire_all()


class TestScenarioSpecHelper:
    def test_byzantine_scenario_spec_builds_one_fault(self):
        spec = byzantine_scenario_spec(0.3, strategy="max-lag", lag=2, at=0.5)
        assert isinstance(spec, ScenarioSpec)
        assert spec.faults == ({"kind": "byzantine-timestamps",
                                "fraction": 0.3, "strategy": "max-lag",
                                "lag": 2, "at": 0.5},)
        rebuilt = build_fault(spec.faults[0])
        assert rebuilt == ByzantineTimestamps(fraction=0.3, strategy="max-lag",
                                              lag=2, at=0.5)
