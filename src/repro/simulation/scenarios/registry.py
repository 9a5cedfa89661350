"""The name-keyed scenario registry, and the shipped scenario library.

Scenarios are registered by name exactly like overlays
(:mod:`repro.dht.registry`) and currency services
(:mod:`repro.api.services`): ``register_scenario`` makes a
:class:`~repro.simulation.scenarios.spec.ScenarioSpec` reachable from the
harness, the CLI (``repro scenario run/compare``), the benchmarks and the
tests, all through the one name string.  Registering validates the spec by
building every component once, so a bad declaration fails at registration
time, not mid-experiment.

Eleven scenarios ship (see ``repro scenario list`` or the "Scenario gallery"
in EXPERIMENTS.md): the paper's baseline workload, skewed and shifting
hotspots, flash-crowd and diurnal arrival shapes, the three application
archetypes, and three correlated-fault regimes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.simulation.scenarios.spec import ScenarioSpec

__all__ = [
    "UNIFORM_SCENARIO",
    "get_scenario",
    "is_scenario_registered",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
]

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> None:
    """Register ``spec`` under its name (case-insensitive).

    The spec is validated (every component is built once) before it becomes
    visible.  Raises :class:`ValueError` when the name is already taken,
    unless ``replace=True`` is passed explicitly.
    """
    key = spec.name.lower()
    if key in _SCENARIOS and not replace:
        raise ValueError(f"scenario {key!r} is already registered; "
                         "pass replace=True to override it")
    spec.validate()
    _SCENARIOS[key] = spec


def unregister_scenario(name: str) -> None:
    """Remove ``name`` from the registry (raises ``ValueError`` if absent)."""
    key = name.lower()
    if key not in _SCENARIOS:
        raise ValueError(f"scenario {key!r} is not registered")
    del _SCENARIOS[key]


def is_scenario_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered scenario."""
    return name.lower() in _SCENARIOS


def scenario_names() -> Tuple[str, ...]:
    """The registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def get_scenario(name: str) -> ScenarioSpec:
    """The spec registered under ``name``."""
    spec = _SCENARIOS.get(name.lower())
    if spec is None:
        known = ", ".join(repr(known_name) for known_name in scenario_names())
        raise ValueError(f"unknown scenario {name.lower()!r}; "
                         f"registered scenarios: {known}")
    return spec


# ------------------------------------------------------- shipped scenarios
#: The paper's workload, and the scenario of every run that names no other.
UNIFORM_SCENARIO = ScenarioSpec(
    name="uniform",
    description="The paper's Table 1 workload: uniform keys, uniform "
                "query times, Poisson updates (the control scenario).")

_BUILTIN_SCENARIOS = (
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
)

for _spec in _BUILTIN_SCENARIOS:
    register_scenario(_spec)
del _spec
