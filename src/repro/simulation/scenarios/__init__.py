"""Declarative scenario engine: composable workloads and fault profiles.

The paper's evaluation (Section 5) runs one workload: uniformly popular keys,
per-key Poisson updates, queries at uniformly distributed times, and
uncorrelated Poisson churn.  That workload is the ``uniform`` scenario, the
one every run gets unless it names another.  This package opens the regimes
that uniform workloads hide — skewed and shifting key popularity, bursty and diurnal
arrivals, application read/write mixes, and correlated failures — while
keeping every run declarative, seeded and replayable.

A scenario is a :class:`~repro.simulation.scenarios.spec.ScenarioSpec`: a
named, dict-serialisable composition of four orthogonal components:

* **key popularity** (:mod:`~repro.simulation.scenarios.popularity`) —
  which keys the queries ask for (uniform, Zipf hotspot, shifting hotspot);
* **arrivals** (:mod:`~repro.simulation.scenarios.arrivals`) — when the
  queries happen (uniform, Poisson, flash-crowd bursts, diurnal ramp);
* **workload profile** (:mod:`~repro.simulation.scenarios.profiles`) — the
  read/write mix of an application archetype (auction, reservation, agenda);
* **fault profile** (:mod:`~repro.simulation.scenarios.faults`) — events
  layered on top of the background churn (correlated failure bursts,
  regional partitions of the identifier space, lossy network windows).

Scenarios are named in the :data:`SCENARIOS` table exactly like overlays
(:mod:`repro.dht.registry`) and currency services (:mod:`repro.api.services`)
— see :mod:`~repro.simulation.scenarios.registry` — and run through
:func:`~repro.simulation.scenarios.engine.run_scenario`, which drives the
:class:`~repro.simulation.harness.SimulationHarness`.  The CLI
exposes the same surface as ``repro scenario list|run|compare``.

>>> from repro.simulation.scenarios import run_scenario
>>> from repro.simulation import SimulationParameters
>>> result = run_scenario("hotspot", SimulationParameters.quick(seed=7))
>>> result.scenario
'hotspot'
"""

from repro.simulation.scenarios.arrivals import (
    ArrivalModel,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    UniformArrivals,
    build_arrivals,
)
from repro.simulation.scenarios.engine import Scenario, run_scenario
from repro.simulation.scenarios.faults import (
    CorrelatedFailureBurst,
    FaultProfile,
    LossyPeriod,
    RegionalPartition,
    build_fault,
)
from repro.simulation.scenarios.popularity import (
    KeyPopularityModel,
    ShiftingHotspotPopularity,
    UniformPopularity,
    ZipfPopularity,
    build_popularity,
)
from repro.simulation.scenarios.profiles import (
    ARCHETYPES,
    WorkloadProfile,
    build_profile,
)
from repro.simulation.scenarios.registry import SCENARIOS
from repro.simulation.scenarios.spec import ScenarioSpec

# Imported last: adds the byzantine fault profiles and the adversarial
# scenarios (byzantine-timestamps, eclipse, geo-latency) to the same
# tables the imports above filled.
from repro.simulation.adversary import (
    ByzantineTimestamps,
    EclipseAttack,
    TimestampLiar,
    eclipse_capture_set,
)

__all__ = [
    "ARCHETYPES",
    "ArrivalModel",
    "ByzantineTimestamps",
    "CorrelatedFailureBurst",
    "DiurnalArrivals",
    "EclipseAttack",
    "FaultProfile",
    "FlashCrowdArrivals",
    "KeyPopularityModel",
    "LossyPeriod",
    "PoissonArrivals",
    "RegionalPartition",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "ShiftingHotspotPopularity",
    "TimestampLiar",
    "UniformArrivals",
    "UniformPopularity",
    "WorkloadProfile",
    "ZipfPopularity",
    "build_arrivals",
    "build_fault",
    "build_popularity",
    "eclipse_capture_set",
    "build_profile",
    "run_scenario",
]
