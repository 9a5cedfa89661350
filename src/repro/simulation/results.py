"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.simulation.metrics import TimeSeries

__all__ = ["AFTER_PINS", "QueryObservation", "RunResult", "without_inert_fields"]

#: ``dataclasses.field`` metadata of a field added after the recorded pins:
#: :func:`without_inert_fields` leaves it out of a record while it holds its
#: (plain) default, so a field added at its default moves no pinned hash.
AFTER_PINS = {"after_pins": True}


def without_inert_fields(instance: Any, record: Dict[str, Any]) -> Dict[str, Any]:
    """``record`` of the dataclass ``instance`` less its marked fields at their default."""
    for each in fields(instance):
        if each.metadata.get("after_pins") and getattr(instance, each.name) == each.default:
            record.pop(each.name, None)
    return record


def _mean(values: List[float]) -> float:
    """Arithmetic mean, 0.0 when there are no values."""
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class QueryObservation:
    """One measured query (retrieve) of the experiment.

    ``stale`` is ground truth only the harness knows: the returned data was
    not the latest committed version of the key (always ``False`` for
    not-found queries).  ``flagged`` records whether the passive timestamp
    cross-check detector (:class:`repro.core.detector.CrossCheckDetector`)
    flagged the retrieval's ``last_ts`` claim as provably behind an observed
    replica.  Both default to ``False`` so observations recorded by earlier
    releases deserialise unchanged.
    """

    time: float
    key: Any
    response_time_s: float
    messages: int
    replicas_inspected: int
    found: bool
    is_current: bool
    stale: bool = False
    flagged: bool = False
    #: Wire bytes attributed to the query (the cost model's
    #: ``traffic_bytes`` over its trace).  Defaults to 0 so observations
    #: recorded by earlier releases deserialise unchanged.
    bytes_sent: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot (used by the execution-layer run cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryObservation":
        """Rebuild an observation recorded by :meth:`to_dict`."""
        return cls(**payload)


@dataclass
class RunResult:
    """Aggregated outcome of one simulation run (one parameter point, one algorithm)."""

    algorithm: str
    num_peers: int
    num_replicas: int
    queries: List[QueryObservation] = field(default_factory=list)
    updates_performed: int = 0
    churn_events: int = 0
    failures: int = 0
    inspections_performed: int = 0
    counter_corrections: int = 0
    #: Samples of the average probability of currency and availability (p_t)
    #: over the tracked keys; populated when
    #: ``SimulationParameters.currency_sample_interval_s`` > 0.
    currency_series: Optional[TimeSeries] = None
    parameters: Optional[Dict[str, Any]] = None
    #: Name of the scenario that drove this run: ``"uniform"`` for the
    #: paper's Table 1 workload, the harness default.  ``None`` only on a
    #: result that no harness produced.
    scenario: Optional[str] = None
    #: Number of fault-profile events that fired during the run (bursts,
    #: partitions, lossy-window transitions); 0 for a fault-free scenario.
    fault_events: int = 0

    # ------------------------------------------------------------------ record
    def record_query(self, observation: QueryObservation) -> None:
        """Append one query observation."""
        self.queries.append(observation)

    # --------------------------------------------------------------- aggregates
    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def avg_response_time_s(self) -> float:
        """Average response time over the measured queries (the paper's metric)."""
        return _mean([observation.response_time_s for observation in self.queries])

    @property
    def avg_messages(self) -> float:
        """Average total messages per query (the paper's communication cost)."""
        return _mean([observation.messages for observation in self.queries])

    @property
    def avg_bytes(self) -> float:
        """Average wire bytes per query (bytes-per-op, the byte cost curve)."""
        return _mean([observation.bytes_sent for observation in self.queries])

    @property
    def avg_replicas_inspected(self) -> float:
        """Average number of replicas each query retrieved."""
        return _mean([observation.replicas_inspected for observation in self.queries])

    @property
    def currency_rate(self) -> float:
        """Fraction of queries that returned a replica known to be current."""
        if not self.queries:
            return 0.0
        return sum(1 for observation in self.queries if observation.is_current) / len(self.queries)

    @property
    def found_rate(self) -> float:
        """Fraction of queries that found at least one replica."""
        if not self.queries:
            return 0.0
        return sum(1 for observation in self.queries if observation.found) / len(self.queries)

    @property
    def stale_results(self) -> int:
        """Queries that returned data older than the key's latest version."""
        return sum(1 for observation in self.queries if observation.stale)

    @property
    def currency_violations(self) -> int:
        """Queries certified current (``is_current``) that were in fact stale.

        This is the measured failure count of the paper's currency
        guarantee: 0 on honest runs up to the guarantee's own probabilistic
        slack, and the quantity byzantine responsibles inflate.
        """
        return sum(1 for observation in self.queries
                   if observation.is_current and observation.stale)

    @property
    def detected_lies(self) -> int:
        """Queries the timestamp cross-check detector flagged."""
        return sum(1 for observation in self.queries if observation.flagged)

    @property
    def undetected_stale_rate(self) -> float:
        """Fraction of stale results the detector did *not* flag (0.0 if none)."""
        stale = self.stale_results
        if stale == 0:
            return 0.0
        undetected = sum(1 for observation in self.queries
                         if observation.stale and not observation.flagged)
        return undetected / stale

    @property
    def true_currency_rate(self) -> float:
        """Fraction of queries that returned the key's actual latest version.

        Unlike :attr:`currency_rate` (what the service *certified*), this is
        measured against the harness's ground truth — the degradation-curve
        metric of the attack grid.
        """
        if not self.queries:
            return 0.0
        current = sum(1 for observation in self.queries
                      if observation.found and not observation.stale)
        return current / len(self.queries)

    @property
    def avg_currency_probability(self) -> float:
        """Mean of the sampled p_t values (0.0 when sampling was disabled)."""
        if self.currency_series is None or len(self.currency_series) == 0:
            return 0.0
        values = self.currency_series.values()
        return sum(values) / len(values)

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable snapshot of the run.

        Round-trips through :meth:`from_dict`: every per-query observation,
        the optional currency time series and the flat parameter record are
        preserved, so a cached result is bit-identical (all aggregates are
        recomputed from the same observations) to the freshly executed one.
        """
        return without_inert_fields(self, {
            "algorithm": self.algorithm,
            "num_peers": self.num_peers,
            "num_replicas": self.num_replicas,
            "queries": [observation.to_dict() for observation in self.queries],
            "updates_performed": self.updates_performed,
            "churn_events": self.churn_events,
            "failures": self.failures,
            "inspections_performed": self.inspections_performed,
            "counter_corrections": self.counter_corrections,
            "currency_series": (self.currency_series.to_dict()
                                if self.currency_series is not None else None),
            "parameters": self.parameters,
            "scenario": self.scenario,
            "fault_events": self.fault_events,
        })

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a run result recorded by :meth:`to_dict`; a missing field takes its default."""
        record = {each.name: payload[each.name] for each in fields(cls) if each.name in payload}
        record["queries"] = [QueryObservation.from_dict(observation)
                             for observation in payload.get("queries", [])]
        if record.get("currency_series") is not None:
            record["currency_series"] = TimeSeries.from_dict(record["currency_series"])
        return cls(**record)

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the experiment tables and benchmarks."""
        return {
            "avg_response_time_s": self.avg_response_time_s,
            "avg_messages": self.avg_messages,
            "avg_bytes": self.avg_bytes,
            "avg_replicas_inspected": self.avg_replicas_inspected,
            "currency_rate": self.currency_rate,
            "true_currency_rate": self.true_currency_rate,
            "found_rate": self.found_rate,
            "stale_results": float(self.stale_results),
            "currency_violations": float(self.currency_violations),
            "detected_lies": float(self.detected_lies),
            "undetected_stale_rate": self.undetected_stale_rate,
            "queries": float(self.query_count),
            "updates": float(self.updates_performed),
            "churn_events": float(self.churn_events),
            "failures": float(self.failures),
            "inspections": float(self.inspections_performed),
            "counter_corrections": float(self.counter_corrections),
            "fault_events": float(self.fault_events),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RunResult(algorithm={self.algorithm!r}, peers={self.num_peers}, "
                f"avg_rt={self.avg_response_time_s:.2f}s, avg_msgs={self.avg_messages:.1f})")
