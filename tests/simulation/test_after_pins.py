"""A field added after the pins leaves every pinned hash alone at its default.

A dataclass field whose metadata is ``AFTER_PINS`` is left out of
``SimulationParameters.describe()`` and ``RunResult.to_dict()`` while it holds
its default, so a new knob that is off by default moves no content hash, no
loop pin and no cached record.  Each test adds one marked field on a copy of
the dataclass and checks both sides: at the default nothing moves, at any
other value everything that records the field does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.plan import RunPoint
from repro.simulation import Algorithm, RunResult, SimulationParameters, run_scenario
from repro.simulation.results import AFTER_PINS, QueryObservation, without_inert_fields


@dataclass
class ReturningParameters(SimulationParameters):
    """``SimulationParameters`` plus a knob read by nothing, off by default."""

    return_rate_per_s: float = field(default=0.0, metadata=AFTER_PINS)


@dataclass
class CountingResult(RunResult):
    """``RunResult`` plus a count that is zero on every pinned run."""

    regressions: int = field(default=0, metadata=AFTER_PINS)

    def to_dict(self):
        return without_inert_fields(self, {**super().to_dict(),
                                           "regressions": self.regressions})


#: ``tests/simulation/test_instrumentation.py``'s first loop pin: its
#: parameters, and the hash of the run's ``to_dict()`` it records.
LOOP_PIN = dict(num_peers=100, num_keys=6, duration_s=600.0, num_queries=8,
                churn_rate_per_s=0.05, failure_rate=0.5, seed=77,
                algorithm=Algorithm.UMS_DIRECT, inspection_interval_s=70.0,
                currency_sample_interval_s=105.0)
LOOP_PIN_DIGEST = "281143e3de68545e"

nonzero = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False)
knobs = st.fixed_dictionaries({
    "num_peers": st.integers(min_value=2, max_value=20_000),
    "protocol": st.sampled_from(["chord", "can", "kademlia"]),
    "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 32)),
    "failure_rate": st.floats(min_value=0.0, max_value=1.0),
})


def loop_pin_digest(parameters):
    result = run_scenario("uniform", parameters)
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()
                          ).hexdigest()[:16]


@given(knobs=knobs, value=nonzero)
@settings(max_examples=80, deadline=None)
def test_describe_and_content_hash_move_only_off_the_default(knobs, value):
    pinned = SimulationParameters(**knobs)
    inert = ReturningParameters(**knobs)
    assert inert.describe() == pinned.describe()
    assert RunPoint(inert).content_hash == RunPoint(pinned).content_hash
    moved = ReturningParameters(**knobs, return_rate_per_s=value)
    assert moved.describe() == {**pinned.describe(), "return_rate_per_s": value}
    assert RunPoint(moved).content_hash != RunPoint(pinned).content_hash


def test_the_loop_pin_moves_only_off_the_default():
    assert loop_pin_digest(SimulationParameters(**LOOP_PIN)) == LOOP_PIN_DIGEST
    assert loop_pin_digest(ReturningParameters(**LOOP_PIN)) == LOOP_PIN_DIGEST
    assert loop_pin_digest(ReturningParameters(**LOOP_PIN, return_rate_per_s=0.25)) \
        != LOOP_PIN_DIGEST


@given(count=st.integers(min_value=-5, max_value=5), churn_events=st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_a_result_count_is_written_only_off_the_default(count, churn_events):
    base = dict(algorithm=Algorithm.BRK, num_peers=10, num_replicas=3,
                churn_events=churn_events, parameters={"seed": 1},
                queries=[QueryObservation(time=1.0, key="k", response_time_s=0.5,
                                          messages=7, replicas_inspected=3,
                                          found=True, is_current=True)])
    record = CountingResult(**base, regressions=count).to_dict()
    pinned = RunResult(**base).to_dict()
    assert record == (pinned if count == 0 else {**pinned, "regressions": count})
    # from_dict fills the missing count from its default, and round-trips.
    assert CountingResult.from_dict(pinned).regressions == 0
    assert CountingResult.from_dict(record).to_dict() == record
    assert RunResult.from_dict(pinned).to_dict() == pinned
