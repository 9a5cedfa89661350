"""Honest-twin parity: a zero-fraction adversary changes *nothing*.

The adversary module's core contract is that its machinery is free when
unused: a scenario carrying a ``byzantine-timestamps`` fault at
``fraction=0`` must reproduce its honest twin (same workload, no fault
entry) **bit for bit** — same query observations (times, response times,
message counts), same aggregate metrics, and the same master RNG state
after the run.  The property is pinned over every built-in overlay, with
hypothesis choosing the seeds.

The geo cost model has the matching degeneration contract: with one region
its default RTT matrix collapses to the Table 1 wide-area parameters, so a
``geo``-priced run with ``geo_regions=1`` is bit-identical to a
``wide-area`` one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import SimulationParameters
from repro.simulation.harness import SimulationHarness
from repro.simulation.scenarios import Scenario, ScenarioSpec, run_scenario

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")

HONEST_TWIN = ScenarioSpec(
    name="parity-honest",
    description="Baseline workload, no faults (the honest twin).")

ZERO_FRACTION_ATTACK = ScenarioSpec(
    name="parity-byzantine-zero",
    description="Same workload with an inert (fraction 0) byzantine fault.",
    faults=({"kind": "byzantine-timestamps", "fraction": 0.0},))


def _parameters(seed: int, protocol: str) -> SimulationParameters:
    return SimulationParameters.quick(
        seed=seed, protocol=protocol, num_peers=60, num_keys=4,
        num_queries=8, duration_s=300.0, update_rate_per_hour=30.0)


def _run(spec, parameters):
    """One scenario run and the master RNG state it leaves behind."""
    harness = SimulationHarness(parameters, scenario=Scenario(spec))
    result = harness.run()
    return result, harness._master_rng.getstate()


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_fraction_attack_is_bit_identical_to_the_honest_twin(protocol, seed):
    parameters = _parameters(seed, protocol)
    honest, honest_rng = _run(HONEST_TWIN, parameters)
    attacked, attacked_rng = _run(ZERO_FRACTION_ATTACK, parameters)

    # Identical master RNG trajectory: the inert fault drew nothing.
    assert attacked_rng == honest_rng

    # Identical run record (the scenario *name* is the only allowed delta).
    honest_record = honest.to_dict()
    attacked_record = attacked.to_dict()
    assert honest_record.pop("scenario") == "parity-honest"
    assert attacked_record.pop("scenario") == "parity-byzantine-zero"
    assert attacked_record == honest_record

    # Nothing fired, nothing was flagged, nothing went stale.
    assert attacked.fault_events == 0
    assert attacked.detected_lies == 0
    assert attacked.currency_violations == 0


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_single_region_geo_pricing_degenerates_to_wide_area(protocol, seed):
    wide = run_scenario("uniform", _parameters(seed, protocol))
    geo = run_scenario("uniform", _parameters(seed, protocol).with_overrides(
        cost_model_preset="geo", geo_regions=1))
    assert [q.to_dict() for q in geo.queries] == \
        [q.to_dict() for q in wide.queries]
    assert geo.summary() == wide.summary()
