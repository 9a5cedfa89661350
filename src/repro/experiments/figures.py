"""The experiment table: every figure, ablation and grid as a declared sweep.

The paper's evaluation (Table 1, Figures 6-12) is a family of one-axis sweeps
over the Table 1 workload, and so are the reproduction's ablations, its
byzantine attack grid and its scenario comparison.  Each is one
:class:`Experiment` record in :data:`EXPERIMENTS`: the swept
:class:`~repro.simulation.config.SimulationParameters` field (or the run's
scenario) with its values (from :data:`SCALE_PROFILES`, or fixed), the series
(one set of parameter overrides and one metric per column: an algorithm per
curve of a figure, an overlay per attack column), the preset and the fixed
overrides.
:func:`run_experiments` runs any subset of the table as **one**
:class:`~repro.execution.RunPlan` holding each distinct parameter point once
(keyed by :attr:`~repro.execution.RunPoint.content_hash`) and builds every
:class:`~repro.experiments.reporting.ExperimentTable` from the shared results.

Every sweep has three scales:

* ``"tiny"`` — two points per sweep and a short horizon (the unit tests);
* ``"quick"`` (default) — a reduced sweep that preserves the qualitative
  shape (who wins, how curves trend) and completes in seconds;
* ``"paper"`` — the full Table 1 scale (up to 10,000 peers, 3 simulated
  hours), matching the parameter ranges of the original figures.

Results are deterministic for a given ``seed``; pass ``executor=Executor(
jobs=4, cache_dir=...)`` to parallelise and cache the runs (bit-identical to
the default serial executor).  :func:`table1_parameters` and
:func:`expected_retrievals_table` are analytic and run no simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.results import Consistency
from repro.core import analysis
from repro.dht.registry import OVERLAYS
from repro.execution import Executor, RunPlan, RunPoint
from repro.experiments.reporting import ExperimentTable
from repro.simulation.adversary import byzantine_scenario_spec
from repro.simulation.config import Algorithm, SimulationParameters, table1_churn_rate
from repro.simulation.results import RunResult
from repro.simulation.scenarios import SCENARIOS, ScenarioSpec
from repro.simulation.scenarios.registry import UNIFORM_SCENARIO

__all__ = [
    "EXPERIMENTS",
    "SCALE_PROFILES",
    "STABILIZATION_INTERVALS_S",
    "Experiment",
    "degradation_thresholds",
    "expected_retrievals_table",
    "run_experiments",
    "table1_parameters",
]

#: Sweep ranges for the three scales.  "paper" mirrors the figures' x axes;
#: "quick" keeps the same span with fewer/smaller points.  A ``*_workload``
#: entry holds the parameter fields of a grid beyond the paper (the records
#: that name it as their ``workload``).
SCALE_PROFILES: Dict[str, Dict[str, Any]] = {
    "tiny": {
        # Minimal sweeps used by the unit tests: every experiment still runs
        # end-to-end, but each sweep has only two points and a short horizon.
        "cluster_peer_counts": (10, 30),
        "peer_counts": (60, 120),
        "replica_counts": (5, 15),
        "failure_rates_percent": (5, 80),
        "update_rates_per_hour": (1.0, 4.0),
        "base_peers": 80,
        "num_keys": 6,
        "duration_s": 400.0,
        "num_queries": 8,
        # The attack grid's test grid (seed 3 is its calibration).
        "attack_fractions": (0.0, 0.2, 0.5),
        "attack_workload": {"num_peers": 100, "num_queries": 40},
        "compare_workload": {"num_peers": 60, "num_keys": 5, "duration_s": 300.0,
                             "num_queries": 6, "churn_rate_per_s": 0.1},
    },
    "quick": {
        "cluster_peer_counts": (10, 20, 30, 40, 50, 60),
        "peer_counts": (250, 500, 1000, 1500, 2000),
        "replica_counts": (5, 10, 20, 30, 40),
        "failure_rates_percent": (5, 20, 40, 60, 80, 90),
        "update_rates_per_hour": (0.25, 0.5, 1.0, 2.0, 4.0),
        "base_peers": 1000,
        "num_keys": 20,
        "duration_s": 1800.0,
        "num_queries": 30,
        "attack_fractions": (0.0, 0.1, 0.2, 0.3, 0.5),
        "attack_workload": {"num_peers": 120, "num_queries": 60},
        "compare_workload": {"num_peers": 150, "num_keys": 10, "duration_s": 900.0,
                             "num_queries": 20, "churn_rate_per_s": 0.15},
    },
    "paper": {
        "cluster_peer_counts": (10, 20, 30, 40, 50, 60),
        "peer_counts": (2000, 4000, 6000, 8000, 10000),
        "replica_counts": (5, 10, 15, 20, 25, 30, 35, 40),
        "failure_rates_percent": (5, 10, 20, 30, 40, 50, 60, 70, 80, 90),
        "update_rates_per_hour": (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0),
        "base_peers": 10000,
        "num_keys": 50,
        "duration_s": 3 * 3600.0,
        "num_queries": 30,
        "attack_fractions": (0.0, 0.1, 0.2, 0.3, 0.5),
        "attack_workload": {"num_peers": 120, "num_queries": 60},
        "compare_workload": {"num_peers": 2000, "num_keys": 50, "duration_s": 10800.0,
                             "num_queries": 30, "churn_rate_per_s": 1.0},
    },
}

#: The stabilisation ablation's intervals (s), the same at every scale.
STABILIZATION_INTERVALS_S = (0.0, 30.0, 120.0, 600.0)

#: One column of an experiment table: (column name, the parameter overrides
#: of the runs that fill it, :class:`~repro.simulation.results.RunResult`
#: attribute read).
Series = Tuple[str, Mapping[str, Any], str]


def _profile(scale: str) -> Dict[str, Any]:
    if scale not in SCALE_PROFILES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALE_PROFILES)}")
    return SCALE_PROFILES[scale]


@dataclass(frozen=True)
class Experiment:
    """One declared sweep: a row per swept value, a run per (value, series).

    ``title`` and ``notes`` are format strings over the first run's
    parameters (``{protocol}``, ``{num_peers}``, ...) and ``{values}``, the
    swept values joined by " vs ".  The requested ``protocol`` drives every
    run, and a non-Chord one suffixes the table id, unless the experiment
    sweeps, fixes or sets the overlay per series itself.  A run's parameters
    are the preset, the profile and ``fixed``, then the scenario spec's
    overrides, then its series' overrides.
    """

    id: str
    title: str
    x_label: str
    #: The :class:`SimulationParameters` field the rows sweep, or ``"scenario"``:
    #: then ``to_field`` maps each row's value to the run's
    #: :class:`~repro.simulation.scenarios.ScenarioSpec`.
    swept: str
    #: The swept values at a scale profile.
    values: Callable[[Mapping[str, Any]], Sequence[Any]]
    series: Tuple[Series, ...]
    notes: str = ""
    #: The :class:`SimulationParameters` preset: ``table1``, ``cluster`` or ``quick``.
    preset: str = "table1"
    fixed: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: Maps a row's x value to the swept field's value (identity when ``None``).
    to_field: Optional[Callable[[Any], Any]] = None
    #: The profile key of the sweep's own parameter fields; ``None`` reads the
    #: profile's base peers, keys, duration and queries.
    workload: Optional[str] = None
    #: A value derived from the built table, appended to its notes.
    derived: Optional[Callable[[ExperimentTable], str]] = None

    def table_id(self, protocol: str) -> str:
        """The table's id: suffixed by a non-Chord overlay the sweep runs on."""
        if (protocol == "chord" or self.swept == "protocol" or "protocol" in self.fixed
                or any("protocol" in overrides for _, overrides, _ in self.series)):
            return self.id
        return f"{self.id}-{protocol}"

    def parameters(self, profile: Mapping[str, Any], x: Any, *, seed: int, protocol: str
                   ) -> Tuple[SimulationParameters, ScenarioSpec]:
        """The row's parameters and scenario: the preset, the profile, the fixed overrides, ``x``."""
        knobs: Dict[str, Any] = dict(seed=seed, protocol=protocol)
        if self.workload is not None:
            knobs.update(profile[self.workload])
        else:
            knobs.update(num_queries=int(profile["num_queries"]))
            if self.preset == "table1":
                knobs.update(num_peers=int(profile["base_peers"]),
                             num_keys=int(profile["num_keys"]),
                             duration_s=float(profile["duration_s"]))
            elif self.preset == "quick":
                # CAN routing is O(n^(1/d)) and the responsibility search is
                # linear in the number of zones, so the quick preset's overlay
                # comparison runs on a smaller population.
                knobs.update(num_peers=min(200, int(profile["base_peers"])))
        knobs.update(self.fixed)
        value = x if self.to_field is None else self.to_field(x)
        scenario = UNIFORM_SCENARIO
        if self.swept == "scenario":
            scenario = value
        else:
            knobs[self.swept] = value
        parameters: SimulationParameters = getattr(SimulationParameters, self.preset)(**knobs)
        if self.preset == "quick" or "churn_rate_per_s" in knobs:
            return parameters, scenario  # the preset or the profile sets its own churn
        return parameters.with_overrides(churn_rate_per_s=table1_churn_rate(
            parameters.num_peers, parameters.duration_s)), scenario

    def points(self, profile: Mapping[str, Any], *, seed: int, protocol: str
               ) -> Dict[Tuple[Any, str], RunPoint]:
        """One run point per (swept value, column), in row order.

        Columns with the same overrides (an ablation's metrics) get equal
        points, which :func:`run_experiments` runs once.
        """
        table_id = self.table_id(protocol)
        grid = RunPlan(name=table_id)
        points = {}
        for x in self.values(profile):
            parameters, scenario = self.parameters(profile, x, seed=seed, protocol=protocol)
            for column, overrides, _ in self.series:
                label = f"{table_id}:{x}/{'@'.join(map(str, overrides.values()))}"
                points[x, column] = grid.add(parameters, scenario=scenario, label=label,
                                             **overrides)
        return points

    def table(self, points: Mapping[Tuple[Any, str], RunPoint],
              results: Mapping[str, RunResult], protocol: str) -> ExperimentTable:
        """The table of :meth:`points`, read from ``results`` (content hash -> result)."""
        x_values = list(dict.fromkeys(x for x, _ in points))
        text = dict(next(iter(points.values())).parameters.describe(),
                    values=" vs ".join(map(str, x_values)))
        table = ExperimentTable(experiment_id=self.table_id(protocol),
                                title=self.title.format(**text), x_label=self.x_label,
                                series=[column for column, _, _ in self.series],
                                notes=self.notes.format(**text))
        for x in x_values:
            table.add_row(x, {column: getattr(results[points[x, column].content_hash], attribute)
                              for column, _, attribute in self.series})
        if self.derived is not None:
            table.notes = f"{table.notes} {self.derived(table)}".strip()
        return table


def degradation_thresholds(table: ExperimentTable) -> Dict[str, Optional[float]]:
    """Per column, the first row whose value falls below the first row's (``None``: never).

    Over the attack grid's certified-currency table: each overlay's smallest
    byzantine fraction whose certified currency falls below the honest
    fraction-0 baseline, the rate the paper's crash-stop analysis certifies.
    """
    thresholds: Dict[str, Optional[float]] = {}
    for column in table.series:
        (_, baseline), *rows = zip(table.x_values(), table.series_values(column))
        thresholds[column] = next((x for x, value in rows if value < baseline), None)
    return thresholds


def _threshold_note(table: ExperimentTable) -> str:
    return "Threshold (first fraction below the guarantee): " + ", ".join(
        f"{column} {'never' if threshold is None else f'{threshold:g}'}"
        for column, threshold in degradation_thresholds(table).items()) + "."


def _curves(attribute: str, algorithms: Sequence[str] = Algorithm.ALL) -> Tuple[Series, ...]:
    """A figure's series: one curve of ``attribute`` per algorithm."""
    return tuple((Algorithm.label(algorithm), {"algorithm": algorithm}, attribute)
                 for algorithm in algorithms)


def _columns(*columns: Tuple[str, str]) -> Tuple[Series, ...]:
    """An ablation's series: (column, attribute) pairs of UMS-Direct runs."""
    return tuple((column, {"algorithm": Algorithm.UMS_DIRECT}, attribute)
                 for column, attribute in columns)


def _overlays(attribute: str) -> Tuple[Series, ...]:
    """The attack grid's series: one column of ``attribute`` per built-in overlay."""
    return tuple((protocol, {"protocol": protocol}, attribute)
                 for protocol in ("chord", "can", "kademlia"))


def _services(attribute: str) -> Tuple[Series, ...]:
    """The scenario comparison's series: a ``service@overlay`` column each."""
    return tuple((f"{service}@{protocol}", {"algorithm": algorithm, "protocol": protocol},
                  attribute)
                 for service, algorithm in (("ums", Algorithm.UMS_DIRECT), ("brk", Algorithm.BRK))
                 for protocol in ("chord", "kademlia"))


def _attack(id: str, title: str, attribute: str, notes: str,
            derived: Optional[Callable[[ExperimentTable], str]] = None) -> Experiment:
    """A record of the attack grid: byzantine fractions x overlays, one metric.

    The workload is deliberately repetitive (few keys, many queries, a high
    update rate), so that repeated queries of a key straddle updates, which
    is when a frozen (stale-replay) timestamp claim becomes observable.
    """
    return Experiment(
        id, title, "byzantine fraction", "scenario", itemgetter("attack_fractions"),
        _overlays(attribute), notes=notes, preset="quick",
        fixed={"num_keys": 6, "duration_s": 600.0, "update_rate_per_hour": 60.0},
        to_field=byzantine_scenario_spec, workload="attack_workload", derived=derived)


def _comparison(attribute: str, title: str) -> Experiment:
    """A record of the scenario comparison: scenarios x services x overlays, one metric."""
    return Experiment(
        f"scenario-compare-{attribute.replace('_', '-')}", title, "scenario", "scenario",
        lambda profile: ("uniform", "hotspot", "correlated-failures", "lossy-network"),
        _services(attribute), to_field=SCENARIOS.__getitem__, workload="compare_workload")


_RESPONSE_TIME = ("response time (s)", "avg_response_time_s")
_MESSAGES = ("messages", "avg_messages")
_REPLICAS_INSPECTED = ("replicas inspected", "avg_replicas_inspected")

#: Every simulated experiment, by id, in report order.
EXPERIMENTS: Dict[str, Experiment] = {experiment.id: experiment for experiment in (
    Experiment(
        "figure-6", "Response time vs number of peers (cluster, {protocol})", "peers",
        "num_peers", itemgetter("cluster_peer_counts"), _curves("avg_response_time_s"),
        notes="Cluster cost model (LAN); all three algorithms grow logarithmically, "
              "UMS-Direct < UMS-Indirect < BRK.",
        preset="cluster"),
    Experiment(
        "figure-7", "Response time vs number of peers (simulation, {protocol})", "peers",
        "num_peers", itemgetter("peer_counts"), _curves("avg_response_time_s"),
        notes="Table 1 parameters; response time grows logarithmically with peers."),
    Experiment(
        "figure-8", "Communication cost vs number of peers ({protocol})", "peers",
        "num_peers", itemgetter("peer_counts"), _curves("avg_messages"),
        notes="BRK retrieves every replica (≈|Hr| lookups); UMS needs the KTS lookup "
              "plus a couple of probes."),
    Experiment(
        "figure-8-bytes", "Communication cost (bytes) vs number of peers ({protocol})",
        "peers", "num_peers", itemgetter("peer_counts"), _curves("avg_bytes"),
        notes="Byte-denominated twin of Figure 8: data-carrying replies dominate, "
              "so BRK's full-replica sweep costs the most bytes too."),
    Experiment(
        "figure-9", "Response time vs number of replicas ({protocol})", "replicas",
        "num_replicas", itemgetter("replica_counts"), _curves("avg_response_time_s"),
        notes="The replica count strongly affects BRK, slightly affects UMS-Indirect "
              "and has no systematic effect on UMS-Direct."),
    Experiment(
        "figure-10", "Communication cost vs number of replicas ({protocol})", "replicas",
        "num_replicas", itemgetter("replica_counts"), _curves("avg_messages"),
        notes="BRK's message count grows linearly with |Hr|."),
    Experiment(
        "figure-10-bytes", "Communication cost (bytes) vs number of replicas ({protocol})",
        "replicas", "num_replicas", itemgetter("replica_counts"), _curves("avg_bytes"),
        notes="Byte-denominated twin of Figure 10: BRK ships a data-sized reply "
              "per replica, so its byte cost grows linearly with |Hr| as well."),
    Experiment(
        "figure-11", "Response time vs failure rate ({protocol})", "failure rate (%)",
        "failure_rate", itemgetter("failure_rates_percent"), _curves("avg_response_time_s"),
        notes="Failures leave stale routing state and lost counters; at high failure "
              "rates UMS-Direct converges towards UMS-Indirect.",
        to_field=lambda percent: percent / 100.0),
    Experiment(
        "figure-12", "Response time vs frequency of updates ({protocol})", "updates/hour",
        "update_rate_per_hour", itemgetter("update_rates_per_hour"),
        _curves("avg_response_time_s", (Algorithm.UMS_INDIRECT, Algorithm.UMS_DIRECT)),
        notes="More frequent updates raise the probability of currency and availability, "
              "so fewer replicas need to be retrieved."),
    Experiment(
        "ablation-probe-order", "UMS probe order ablation ({protocol})", "probe order",
        "probe_order", lambda profile: ("random", "fixed"),
        _columns(_RESPONSE_TIME, _MESSAGES, _REPLICAS_INSPECTED),
        notes="Random order matches the geometric analysis of Section 3.3."),
    Experiment(
        "ablation-stabilization", "Stabilisation interval ablation",
        "stabilisation interval (s)", "stabilization_interval_s",
        lambda profile: STABILIZATION_INTERVALS_S, _columns(_RESPONSE_TIME, _MESSAGES),
        notes="Longer intervals leave more stale fingers after failures, inflating "
              "routing retries and timeouts (the mechanism behind Figure 11).",
        fixed={"protocol": "chord", "failure_rate": 0.5}),
    Experiment(
        "ablation-overlay", "Overlay ablation ({values})", "overlay",
        "protocol", lambda profile: sorted(OVERLAYS),
        _columns(_RESPONSE_TIME, _MESSAGES, ("currency rate", "currency_rate")),
        notes="UMS-Direct over {num_peers} peers; the routing cost differs "
              "(O(log n) for Chord/Kademlia, O(n^1/d) for CAN) but the currency "
              "guarantees are identical on every overlay.",
        preset="quick"),
    Experiment(
        "ablation-consistency", "Retrieve consistency-level ablation ({protocol})",
        "consistency", "consistency", lambda profile: Consistency.ALL,
        _columns(_RESPONSE_TIME, _MESSAGES, _REPLICAS_INSPECTED,
                 ("certified current", "currency_rate")),
        notes="UMS-Direct; 'current' is the paper's Figure 2 retrieval, 'any' a "
              "first-replica read without the KTS lookup, 'best-effort' a "
              "bounded-probe read returning the freshest replica found."),
    _attack(
        "attack-degradation", "Certified currency vs byzantine fraction (stale-replay)",
        "currency_rate",
        "UMS-Direct over {num_peers} peers; the fraction-0 row is the guarantee, the "
        "honest-responsible rate the paper's crash-stop analysis certifies.",
        derived=_threshold_note),
    _attack(
        "attack-detected-lies", "Detected timestamp lies vs byzantine fraction (stale-replay)",
        "detected_lies",
        "Responsible claims the cross-check detector flagged as older than a replica "
        "seen in the same retrieve."),
    _comparison("currency_rate", "certified-current retrieval rate"),
    _comparison("avg_response_time_s", "average response time (s)"),
    _comparison("avg_messages", "average messages per query"),
)}


def run_experiments(ids: Sequence[str], scale: str = "quick", *, seed: int = 2007,
                    protocol: str = "chord",
                    executor: Optional[Executor] = None) -> List[ExperimentTable]:
    """Run the experiments ``ids`` (keys of :data:`EXPERIMENTS`); one table each.

    All their points go into one :class:`~repro.execution.RunPlan`, which
    holds a point shared by several experiments (the Table 1 base point
    recurs in most sweeps; the attack records share all theirs) once.
    ``protocol`` selects the overlay of every experiment that does not sweep,
    fix or set per series its own.  ``executor`` defaults to a serial
    :class:`~repro.execution.Executor`.
    """
    profile = _profile(scale)
    unknown = [experiment_id for experiment_id in ids if experiment_id not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; expected some of {list(EXPERIMENTS)}")
    grids = [EXPERIMENTS[experiment_id].points(profile, seed=seed, protocol=protocol)
             for experiment_id in ids]
    distinct: Dict[str, RunPoint] = {}
    for grid in grids:
        for point in grid.values():
            distinct.setdefault(point.content_hash, point)
    plan = RunPlan(name=f"experiments-{scale}", points=list(distinct.values()))
    results = dict(zip(distinct, (executor or Executor()).run(plan)))
    return [EXPERIMENTS[experiment_id].table(grid, results, protocol)
            for experiment_id, grid in zip(ids, grids)]


# --------------------------------------------------------------------- Table 1
def table1_parameters(scale: str = "paper") -> ExperimentTable:
    """Table 1: the simulation parameters, as configured in this reproduction."""
    profile = _profile(scale)
    parameters = SimulationParameters.table1(
        num_peers=int(profile["base_peers"]), num_keys=int(profile["num_keys"]),
        duration_s=float(profile["duration_s"]))
    table = ExperimentTable(
        experiment_id="table-1", title="Simulation parameters", x_label="parameter",
        series=["value"],
        notes="Latency/bandwidth are normally distributed per Table 1; departures and "
              "updates are Poisson processes.")
    rows = [
        ("bandwidth (kbps, mean)", parameters.bandwidth_mean_bps / 1000.0),
        ("latency (ms, mean)", parameters.latency_mean_s * 1000.0),
        ("number of peers", parameters.num_peers),
        ("|Hr| (replicas per data)", parameters.num_replicas),
        ("peer departure rate (1/s)", parameters.churn_rate_per_s),
        ("updates per data (1/hour)", parameters.update_rate_per_hour),
        ("failure rate (% of departures)", parameters.failure_rate * 100.0),
        ("data items", parameters.num_keys),
        ("queries per experiment", parameters.num_queries),
        ("experiment duration (s)", parameters.duration_s),
    ]
    for name, value in rows:
        table.add_row(name, {"value": value})
    return table


# ------------------------------------------------------- Theorem 1 / cost model
def expected_retrievals_table(pt_values: Sequence[float] = (0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0),
                              num_replicas: int = 10) -> ExperimentTable:
    """Section 3.3: expected number of retrieved replicas vs ``pt`` (Theorem 1).

    Includes the paper's headline data point: with ``pt = 0.35`` the expected
    number of retrieved replicas is below 3.
    """
    table = ExperimentTable(
        experiment_id="theorem-1", title="Expected retrieved replicas vs pt",
        x_label="pt", series=["E[X] (Eq. 1)", "E[probes]", "1/pt bound", "min(1/pt, |Hr|)"],
        notes=f"|Hr| = {num_replicas}. E[X] follows Equation 1; the bound is Theorem 1.")
    for pt in pt_values:
        table.add_row(pt, {
            "E[X] (Eq. 1)": analysis.expected_retrievals(pt, num_replicas),
            "E[probes]": analysis.expected_probes(pt, num_replicas),
            "1/pt bound": analysis.expected_retrievals_upper_bound(pt),
            "min(1/pt, |Hr|)": analysis.retrieval_bound(pt, num_replicas),
        })
    return table
