"""The name-keyed scenario table, and the shipped scenario library.

:data:`SCENARIOS` maps names to
:class:`~repro.simulation.scenarios.spec.ScenarioSpec` objects exactly like
:data:`~repro.dht.registry.OVERLAYS` and
:data:`~repro.api.services.SERVICES` map names to factories: the harness, the
CLI (``repro scenario run``), the benchmarks and the tests all reach a
scenario through its name.  The shipped specs are validated (every component
built once) when this module loads, so a bad declaration fails at import, not
mid-experiment; a spec added at runtime is validated when it first runs.

Eleven scenarios ship here (see ``repro scenario list`` or the "Scenario
gallery" in EXPERIMENTS.md): the paper's baseline workload, skewed and
shifting hotspots, flash-crowd and diurnal arrival shapes, the three
application archetypes, and three correlated-fault regimes.
:mod:`repro.simulation.adversary` adds three adversarial ones.
"""

from __future__ import annotations

from typing import Dict

from repro.simulation.scenarios.spec import ScenarioSpec

__all__ = ["SCENARIOS", "UNIFORM_SCENARIO"]


# ------------------------------------------------------- shipped scenarios
#: The paper's workload, and the scenario of every run that names no other.
UNIFORM_SCENARIO = ScenarioSpec(
    name="uniform",
    description="The paper's Table 1 workload: uniform keys, uniform "
                "query times, Poisson updates (the control scenario).")

#: Scenario name -> spec, the table every scenario name resolves through.
#: Each shipped spec is validated as it goes in.
SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec.validate() for spec in (
    UNIFORM_SCENARIO,
    ScenarioSpec(
        name="hotspot",
        description="Static Zipf(1.1) key popularity: a few hot keys draw "
                    "most queries.",
        popularity={"model": "zipf", "exponent": 1.1}),
    ScenarioSpec(
        name="shifting-hotspot",
        description="Zipf(1.1) hotspot rotating through the key population "
                    "over four phases (interest drift).",
        popularity={"model": "shifting-hotspot", "exponent": 1.1, "phases": 4}),
    ScenarioSpec(
        name="flashcrowd",
        description="Two narrow burst windows carry 70% of the queries onto "
                    "Zipf-hot keys.",
        popularity={"model": "zipf", "exponent": 1.1},
        arrivals={"model": "flash-crowd",
                  "bursts": [[0.3, 0.1, 0.35], [0.7, 0.1, 0.35]]}),
    ScenarioSpec(
        name="diurnal",
        description="Sinusoidal day/night arrival ramp (two cycles, "
                    "amplitude 0.8) over uniform keys.",
        arrivals={"model": "diurnal", "cycles": 2, "amplitude": 0.8}),
    ScenarioSpec(
        name="auction",
        description="Auction archetype: Zipf-hot items, bids drive 4x "
                    "updates concentrated on the hot keys.",
        popularity={"model": "zipf", "exponent": 1.2},
        profile={"archetype": "auction"}),
    ScenarioSpec(
        name="reservation",
        description="Reservation archetype: mildly skewed slots, bookings "
                    "drive 2x updates on the popular slots.",
        popularity={"model": "zipf", "exponent": 0.9},
        profile={"archetype": "reservation"}),
    ScenarioSpec(
        name="agenda",
        description="Agenda archetype: read-mostly sharing, uniform keys, "
                    "updates at half the Table 1 rate.",
        profile={"archetype": "agenda"}),
    ScenarioSpec(
        name="correlated-failures",
        description="Two correlated bursts each fail 10% of the peers at "
                    "once (compensated by joins), on the baseline workload.",
        faults=({"kind": "correlated-burst", "at": 0.35, "fraction": 0.1},
                {"kind": "correlated-burst", "at": 0.7, "fraction": 0.1})),
    ScenarioSpec(
        name="partition",
        description="A quarter of the identifier space goes dark mid-run "
                    "and heals (fresh joins) near the end.",
        faults=({"kind": "partition", "at": 0.4, "start": 0.25, "span": 0.25,
                 "heal_after": 0.4},)),
    ScenarioSpec(
        name="lossy-network",
        description="Mid-run lossy window: 5x latency and a quarter of the "
                    "bandwidth between 25% and 75% of the run.",
        faults=({"kind": "lossy-period", "start": 0.25, "end": 0.75,
                 "latency_factor": 5.0, "bandwidth_factor": 0.25},)),
)}
