"""Property tests for the scenario engine (determinism, bounds, replay).

Three families of properties are pinned:

* **seed determinism** — every schedule a scenario produces is a pure
  function of its configuration and the RNG seed;
* **generator bounds** — Zipf weights are a normalised distribution, and
  the flash-crowd/diurnal generators only emit times inside the run (burst
  times inside their windows);
* **record → replay** — serialising a scenario spec to a dict (through
  JSON) and re-running it reproduces the exact ``RunResult`` metrics.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import SimulationParameters
from repro.simulation.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    build_arrivals,
    build_popularity,
    run_scenario,
)

KEYS = [f"item-{index}" for index in range(12)]

popularity_configs = st.one_of(
    st.just({"model": "uniform"}),
    st.builds(lambda exponent: {"model": "zipf", "exponent": exponent},
              st.floats(min_value=0.2, max_value=2.5)),
    st.builds(lambda exponent, phases: {"model": "shifting-hotspot",
                                        "exponent": exponent, "phases": phases},
              st.floats(min_value=0.2, max_value=2.5),
              st.integers(min_value=1, max_value=8)),
)

arrival_configs = st.one_of(
    st.just({"model": "uniform"}),
    st.just({"model": "poisson"}),
    st.builds(lambda center, width, share: {
        "model": "flash-crowd",
        "bursts": [[center, min(width, 2 * center, 2 * (1 - center)), share]]},
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.02, max_value=0.2),
        st.floats(min_value=0.1, max_value=0.8)),
    st.builds(lambda cycles, amplitude: {"model": "diurnal", "cycles": cycles,
                                         "amplitude": amplitude},
              st.integers(min_value=1, max_value=4),
              st.floats(min_value=0.0, max_value=0.95)),
)


class TestSeedDeterminism:
    @given(config=popularity_configs, seed=st.integers(0, 2**32 - 1),
           time_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_choose_is_deterministic_under_a_fixed_seed(self, config, seed,
                                                        time_fraction):
        first = [build_popularity(config).choose(KEYS, time_fraction,
                                                 random.Random(seed))
                 for _ in range(5)]
        second = [build_popularity(config).choose(KEYS, time_fraction,
                                                  random.Random(seed))
                  for _ in range(5)]
        assert first == second

    @given(config=arrival_configs, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_arrival_times_are_deterministic_under_a_fixed_seed(self, config,
                                                                seed):
        model = build_arrivals(config)
        assert (list(model.times(30, 900.0, random.Random(seed)))
                == list(build_arrivals(config).times(30, 900.0,
                                                     random.Random(seed))))

    @given(name=st.sampled_from(sorted(SCENARIOS)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scenario_schedules_are_deterministic_under_a_fixed_seed(self, name,
                                                                     seed):
        def schedules(scenario):
            rng = random.Random(seed)
            return (scenario.query_schedule(KEYS, 10, 600.0, rng),
                    scenario.update_schedule(KEYS, 2.0, 600.0, rng))

        assert (schedules(Scenario(SCENARIOS[name]))
                == schedules(Scenario(SCENARIOS[name])))


class TestGeneratorBounds:
    @given(config=popularity_configs,
           num_keys=st.integers(min_value=1, max_value=50),
           time_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_weights_are_a_distribution(self, config, num_keys, time_fraction):
        weights = build_popularity(config).weights(num_keys, time_fraction)
        assert len(weights) == num_keys
        assert all(weight > 0.0 for weight in weights)
        assert abs(sum(weights) - 1.0) < 1e-9

    @given(config=popularity_configs, seed=st.integers(0, 2**32 - 1),
           time_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_chosen_keys_are_members(self, config, seed, time_fraction):
        model = build_popularity(config)
        rng = random.Random(seed)
        assert all(model.choose(KEYS, time_fraction, rng) in KEYS
                   for _ in range(20))

    @given(config=arrival_configs, seed=st.integers(0, 2**32 - 1),
           num_events=st.integers(min_value=1, max_value=120),
           duration=st.floats(min_value=10.0, max_value=7200.0))
    @settings(max_examples=80, deadline=None)
    def test_arrival_times_honour_the_run_bounds(self, config, seed,
                                                 num_events, duration):
        times = list(build_arrivals(config).times(num_events, duration,
                                                  random.Random(seed)))
        assert all(0.0 <= time < duration for time in times)
        if config["model"] in ("uniform", "flash-crowd", "diurnal"):
            assert len(times) == num_events

    @given(center=st.floats(min_value=0.2, max_value=0.8),
           width=st.floats(min_value=0.02, max_value=0.2),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_flash_crowd_burst_share_lands_inside_its_window(self, center,
                                                             width, seed):
        config = {"model": "flash-crowd", "bursts": [[center, width, 0.5]]}
        duration = 1000.0
        times = list(build_arrivals(config).times(100, duration,
                                                  random.Random(seed)))
        start = (center - width / 2) * duration
        stop = (center + width / 2) * duration
        in_window = sum(1 for time in times if start <= time <= stop)
        # The burst allocates int(100 * 0.5) = 50 events to the window;
        # background traffic can only add to that.
        assert in_window >= 50


class TestRecordReplay:
    @given(name=st.sampled_from(sorted(SCENARIOS)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_spec_replay_reproduces_identical_metrics(self, name, seed):
        parameters = SimulationParameters(num_peers=60, num_keys=5,
                                          duration_s=300.0, num_queries=6,
                                          churn_rate_per_s=0.05, seed=seed)
        recorded = run_scenario(name, parameters)
        payload = json.dumps(SCENARIOS[name].to_dict())
        replayed = run_scenario(ScenarioSpec.from_dict(json.loads(payload)),
                                parameters)
        assert replayed.summary() == recorded.summary()
        assert ([observation.response_time_s for observation in replayed.queries]
                == [observation.response_time_s for observation in recorded.queries])
