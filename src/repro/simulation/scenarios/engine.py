"""The scenario runtime: built components + the ``run_scenario`` entry point.

:class:`Scenario` turns a declarative
:class:`~repro.simulation.scenarios.spec.ScenarioSpec` into live model
objects and exposes the three hooks the
:class:`~repro.simulation.harness.SimulationHarness` calls: the query
schedule (arrival model × popularity model), the update schedule (profile ×
popularity) and fault installation.  :func:`run_scenario` is the one-call
entry point used by the CLI, the benchmarks and the tests::

    from repro.simulation import SimulationParameters
    from repro.simulation.scenarios import run_scenario

    result = run_scenario("flashcrowd", SimulationParameters.quick(seed=7),
                          protocol="kademlia")

Replay guarantee: the schedules and fault firings are pure functions of the
spec, the parameters and the run seed, so re-running a recorded
``(spec, parameters)`` pair reproduces the same
:class:`~repro.simulation.results.RunResult` metrics bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.dht.registry import lookup
from repro.simulation.processes import poisson_arrival_times
from repro.simulation.config import SimulationParameters
from repro.simulation.results import RunResult
from repro.simulation.scenarios.arrivals import build_arrivals
from repro.simulation.scenarios.faults import build_fault
from repro.simulation.scenarios.popularity import build_popularity
from repro.simulation.scenarios.profiles import build_profile
from repro.simulation.scenarios.spec import ScenarioSpec
from repro.simulation.workload import ScheduledEvent

__all__ = ["Scenario", "run_scenario"]


class Scenario:
    """A spec's components, built and ready to drive a harness run."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.popularity = build_popularity(spec.popularity)
        self.arrivals = build_arrivals(spec.arrivals)
        self.profile = build_profile(spec.profile)
        self.faults = tuple(build_fault(config) for config in spec.faults)
        #: Fault events fired during the last run (appended by the profiles).
        self.fault_log: List[Dict[str, Any]] = []

    @property
    def name(self) -> str:
        """The spec's registry name."""
        return self.spec.name

    # ----------------------------------------------------------- scheduling
    def query_schedule(self, keys: Sequence[Any], num_queries: int,
                       duration_s: float, rng) -> List[ScheduledEvent]:
        """The measured queries: arrival times × popularity-chosen keys, sorted.

        Each query's key is drawn right after its time, so the ``uniform``
        scenario draws exactly the paper's query schedule.
        """
        count = self.profile.scaled_queries(num_queries)
        events = [ScheduledEvent(time=time,
                                 key=self.popularity.choose(keys, time / duration_s, rng))
                  for time in self.arrivals.times(count, duration_s, rng)]
        events.sort(key=lambda event: event.time)
        return events

    def update_schedule(self, keys: Sequence[Any], rate_per_hour: float,
                        duration_s: float, rng) -> List[ScheduledEvent]:
        """Per-key Poisson update schedules, shaped by the workload profile.

        Each key is updated at ``rate_per_hour`` scaled by the profile's
        multiplier (the paper's model).  With ``updates_follow_popularity``
        the same total budget is redistributed over keys proportionally to
        the popularity weights at the start of the run.
        """
        if rate_per_hour < 0:
            raise ValueError("rate_per_hour must be >= 0")
        rate_per_s = rate_per_hour / 3600.0 * self.profile.update_rate_multiplier
        rates = [rate_per_s] * len(keys)
        if self.profile.updates_follow_popularity and keys:
            rates = [rate_per_s * len(keys) * weight
                     for weight in self.popularity.weights(len(keys), 0.0)]
        events = [ScheduledEvent(time=time, key=key)
                  for key, rate in zip(keys, rates) if rate > 0
                  for time in poisson_arrival_times(rate, duration_s, rng)]
        events.sort(key=lambda event: event.time)
        return events

    # --------------------------------------------------------------- faults
    def install_faults(self, sim, *, network, cost_model, rng,
                       duration_s: float, churn=None, cluster=None) -> None:
        """Schedule every fault profile on ``sim``; resets the fault log.

        ``churn`` (the run's :class:`~repro.simulation.churn.ChurnProcess`)
        lets failure-style profiles execute through the churn accounting;
        ``cluster`` (the run's :class:`~repro.api.cluster.Cluster`) gives the
        byzantine profiles of :mod:`repro.simulation.adversary` access to
        the KTS reply seam.
        """
        self.fault_log = []
        for fault in self.faults:
            fault.install(sim, network=network, cost_model=cost_model, rng=rng,
                          duration_s=duration_s, log=self.fault_log, churn=churn,
                          cluster=cluster)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Scenario({self.name!r}, popularity={self.popularity.kind}, "
                f"arrivals={self.arrivals.kind}, profile={self.profile.name}, "
                f"faults={[fault.kind for fault in self.faults]})")


def run_scenario(scenario: Union[str, ScenarioSpec, Scenario],
                 parameters: Optional[SimulationParameters] = None,
                 **overrides) -> RunResult:
    """Run one scenario and return its :class:`RunResult`.

    ``scenario`` is a name in ``SCENARIOS``, a :class:`ScenarioSpec` or a built
    :class:`Scenario`.  ``parameters`` defaults to the Table 1 configuration;
    the spec's ``overrides`` are applied on top of it, and keyword
    ``overrides`` (e.g. ``protocol="kademlia"``, ``seed=7``) win over both.
    """
    # Imported here: the registry validates its specs at import time, which
    # builds Scenario objects from this module.
    from repro.simulation.harness import SimulationHarness
    from repro.simulation.scenarios.registry import SCENARIOS

    if isinstance(scenario, str):
        scenario = Scenario(lookup(SCENARIOS, scenario, "scenario"))
    elif isinstance(scenario, ScenarioSpec):
        scenario = Scenario(scenario)
    base = parameters if parameters is not None else SimulationParameters()
    merged = dict(scenario.spec.overrides)
    merged.update(overrides)
    if merged:
        base = base.with_overrides(**merged)
    return SimulationHarness(base, scenario=scenario).run()
