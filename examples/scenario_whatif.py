#!/usr/bin/env python
"""What-if analysis with the declarative scenario engine.

The paper's evaluation runs one workload (Table 1).  The scenario engine
turns the harness into a what-if machine: this example

1. runs the scenario comparison (the paper's baseline workload, a hotspot,
   correlated failures and a lossy network, for UMS and BRK on two
   overlays) as the experiment table's ``scenario-compare-*`` records,
2. prints their per-metric tables, the ones
   ``repro experiments --only scenario-compare`` reports, and
3. declares a brand-new scenario inline (a flash crowd hammering Zipf-hot
   auction items during a lossy network window), adds it to the scenario
   table, records its spec to a dict and replays it — demonstrating that a
   seeded run is reproducible bit-for-bit from its serialised spec.

Run with::

    python examples/scenario_whatif.py
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments
from repro.experiments.runner import select_experiments
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec, run_scenario

#: One small parameter point for the custom scenario.
PARAMETERS = dict(num_peers=90, num_keys=8, duration_s=600.0, num_queries=12,
                  churn_rate_per_s=0.08)


def compare_scenarios() -> None:
    """Scenario x service x overlay sweep (tiny scale), reported as per-metric tables."""
    for table in run_experiments(select_experiments(["scenario-compare"]), "tiny"):
        print(table.to_text())
        print()


def declare_add_replay() -> None:
    """A custom scenario: declared, added to the table, recorded and replayed."""
    spec = ScenarioSpec(
        name="black-friday",
        description="Flash crowd on hot auction items over a lossy network.",
        popularity={"model": "zipf", "exponent": 1.3},
        arrivals={"model": "flash-crowd", "bursts": [[0.5, 0.08, 0.7]]},
        profile={"archetype": "auction"},
        faults=({"kind": "lossy-period", "start": 0.4, "end": 0.6,
                 "latency_factor": 4.0},))
    SCENARIOS[spec.name] = spec.validate()
    try:
        parameters = SimulationParameters(seed=41, **PARAMETERS)
        recorded = run_scenario("black-friday", parameters)
        replayed = run_scenario(ScenarioSpec.from_dict(spec.to_dict()), parameters)
        print(f"black-friday: {recorded.query_count} queries, "
              f"avg rt {recorded.avg_response_time_s:.2f} s, "
              f"certified current {recorded.currency_rate:.0%}, "
              f"{recorded.fault_events} fault events")
        print(f"spec replay reproduces the metrics bit-for-bit: "
              f"{replayed.summary() == recorded.summary()}")
    finally:
        del SCENARIOS["black-friday"]


def main() -> None:
    """Run the comparison sweep, then the declare/add/replay round-trip."""
    print("= Scenario x service x overlay comparison =")
    compare_scenarios()
    print("= Declaring, recording and replaying a custom scenario =")
    declare_add_replay()


if __name__ == "__main__":
    main()
