"""Simulation parameters (Table 1 of the paper) and the algorithm registry.

The ``protocol`` field selects the DHT overlay by name and is validated
against :mod:`repro.dht.registry`, so any overlay registered there (built-in
Chord/CAN/Kademlia or a runtime-registered backend) can drive every scenario
— churn, failures, replica scale-up, update frequency — without touching the
harness.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional

from repro.api.results import Consistency
from repro.dht.registry import OVERLAYS, lookup
from repro.simulation.cost import GeoLatencyCostModel, NetworkCostModel

__all__ = ["Algorithm", "SimulationParameters", "table1_churn_rate"]


def table1_churn_rate(num_peers: int, duration_s: float) -> float:
    """Network-wide departure rate (1/s) with Table 1's churn *intensity*.

    Table 1 runs 1 departure/second across 10,000 peers for 3 hours: 1.08
    departures per peer over the run.  A run with a smaller population or a
    shorter duration keeps that intensity at ``1.08 * num_peers /
    duration_s`` (exactly 1/s at Table 1's own scale).
    """
    return 1.08 * num_peers / duration_s


class Algorithm:
    """The three algorithms compared in Section 5.

    An *algorithm* is a currency service (resolved by name through the
    :mod:`repro.api.services` registry) plus its configuration: the two UMS
    variants differ only in the KTS counter-initialisation mode.  The harness
    resolves every algorithm through :meth:`service_name` /
    :meth:`initialization` instead of branching on the constants.
    """

    UMS_DIRECT = "ums-direct"
    UMS_INDIRECT = "ums-indirect"
    BRK = "brk"

    ALL = (BRK, UMS_INDIRECT, UMS_DIRECT)

    #: Display names used in experiment tables (matching the paper's legends).
    LABELS = {
        BRK: "BRK",
        UMS_INDIRECT: "UMS-Indirect",
        UMS_DIRECT: "UMS-Direct",
    }

    #: The registered currency service each algorithm resolves to.
    SERVICES = {
        BRK: "brk",
        UMS_INDIRECT: "ums",
        UMS_DIRECT: "ums",
    }

    @classmethod
    def validate(cls, algorithm: str) -> str:
        if algorithm not in cls.ALL:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {cls.ALL}")
        return algorithm

    @classmethod
    def label(cls, algorithm: str) -> str:
        return cls.LABELS[cls.validate(algorithm)]

    @classmethod
    def service_name(cls, algorithm: str) -> str:
        """The :mod:`repro.api.services` registry name backing ``algorithm``."""
        return cls.SERVICES[cls.validate(algorithm)]

    @classmethod
    def initialization(cls, algorithm: str) -> str:
        """The KTS counter-initialisation mode implied by ``algorithm``."""
        # Imported lazily: repro.core imports repro.api.results, which this
        # module also uses; keep the config layer import-light.
        from repro.core.kts import CounterInitialization

        if cls.validate(algorithm) == cls.UMS_INDIRECT:
            return CounterInitialization.INDIRECT
        return CounterInitialization.DIRECT


@dataclass
class SimulationParameters:
    """All knobs of one simulation run.

    The defaults are Table 1 of the paper: 10,000 peers, 10 replicas per data
    item, normally distributed latency (mean 200 ms) and bandwidth (mean
    56 kbps), departures timed by a Poisson process with λ = 1/second (5 % of
    which are failures, each departure compensated by a fresh join), and
    per-data updates timed by a Poisson process with λ = 1/hour.

    The experiment-specific knobs (which algorithm runs, how long the run
    lasts, how many data items exist and how many queries are measured) follow
    Section 5.1: each experiment issues queries at 30 uniformly distributed
    times over the run and reports the average.
    """

    # --- population -------------------------------------------------------
    num_peers: int = 10_000
    num_replicas: int = 10
    num_keys: int = 50
    protocol: str = "chord"
    bits: int = 32

    # --- workload (Table 1) ------------------------------------------------
    duration_s: float = 3 * 3600.0
    num_queries: int = 30
    churn_rate_per_s: float = 1.0
    failure_rate: float = 0.05
    update_rate_per_hour: float = 1.0

    # --- network cost model (Table 1) ---------------------------------------
    #: ``"wide-area"`` (Table 1), ``"cluster"`` (Section 5.2) or ``"geo"``
    #: (per-region RTT matrix: :class:`repro.simulation.cost.GeoLatencyCostModel`).
    cost_model_preset: str = "wide-area"
    latency_mean_s: float = 0.2
    latency_std_s: float = 0.01
    bandwidth_mean_bps: float = 56_000.0
    bandwidth_std_bps: float = 5_660.0
    timeout_s: float = 2.0
    #: Number of geographic regions of the ``"geo"`` preset (ignored by the
    #: other presets).
    geo_regions: int = 3
    #: Seed of the deterministic peer -> region assignment of the ``"geo"``
    #: preset; ``None`` falls back to the run ``seed`` (or 0).
    geo_assignment_seed: Optional[int] = None

    # --- algorithm ----------------------------------------------------------
    algorithm: str = Algorithm.UMS_DIRECT
    #: Per-retrieve consistency level used for the measured queries
    #: (``current`` is the paper's Figure 2 retrieval; ``any`` and
    #: ``best-effort`` trade freshness for messages).
    consistency: str = Consistency.CURRENT
    probe_order: str = "random"
    stabilization_interval_s: float = 30.0
    #: Interval (simulated seconds) of the periodic-inspection repair strategy
    #: of Section 4.2.2; 0 disables it.  Only meaningful for the UMS variants.
    inspection_interval_s: float = 0.0

    # --- instrumentation -----------------------------------------------------
    #: When > 0, the harness samples the probability of currency and
    #: availability (p_t) of every key at this interval and exposes the samples
    #: as a time series on the run result.
    currency_sample_interval_s: float = 0.0
    #: Claim-behind tolerance (timestamp increments) of the passive timestamp
    #: cross-check detector (:class:`repro.core.detector.CrossCheckDetector`)
    #: the harness attaches to the UMS.  0 flags any claim provably behind an
    #: observed replica; the detector never changes a retrieval's outcome.
    cross_check_window: int = 0

    # --- reproducibility ----------------------------------------------------
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        Algorithm.validate(self.algorithm)
        Consistency.validate(self.consistency)
        lookup(OVERLAYS, self.protocol, "protocol")
        if self.num_peers < 2:
            raise ValueError("num_peers must be >= 2")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.churn_rate_per_s < 0:
            raise ValueError("churn_rate_per_s must be >= 0")
        if self.update_rate_per_hour < 0:
            raise ValueError("update_rate_per_hour must be >= 0")
        if self.cost_model_preset not in ("wide-area", "cluster", "geo"):
            raise ValueError("cost_model_preset must be 'wide-area', "
                             "'cluster' or 'geo'")
        if self.geo_regions < 1:
            raise ValueError("geo_regions must be >= 1")
        if self.inspection_interval_s < 0:
            raise ValueError("inspection_interval_s must be >= 0")
        if self.currency_sample_interval_s < 0:
            raise ValueError("currency_sample_interval_s must be >= 0")
        if self.cross_check_window < 0:
            raise ValueError("cross_check_window must be >= 0")

    # ----------------------------------------------------------------- presets
    @classmethod
    def table1(cls, **overrides) -> "SimulationParameters":
        """The paper's Table 1 defaults, with optional field overrides."""
        return cls(**overrides)

    @classmethod
    def cluster(cls, **overrides) -> "SimulationParameters":
        """The 64-node cluster experiment of Figure 6.

        A much smaller network evaluated with the cluster cost model; churn is
        kept (the cluster also experiences joins/leaves in the paper's setup)
        but scaled to the population size.
        """
        defaults = dict(num_peers=64, duration_s=1800.0, churn_rate_per_s=0.02,
                        cost_model_preset="cluster", num_keys=20)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def quick(cls, **overrides) -> "SimulationParameters":
        """A scaled-down profile for tests and fast benchmark runs.

        Keeps the *structure* of Table 1 (relative rates, replica count) while
        shrinking the population and duration so a run completes in well under
        a second.
        """
        defaults = dict(num_peers=200, num_keys=10, duration_s=600.0,
                        num_queries=10, churn_rate_per_s=0.05)
        defaults.update(overrides)
        return cls(**defaults)

    # ------------------------------------------------------------------ helpers
    def with_overrides(self, **overrides) -> "SimulationParameters":
        """A copy of the parameters with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    def build_cost_model(self, rng: Optional[random.Random] = None) -> NetworkCostModel:
        """The network cost model matching these parameters."""
        if rng is None:
            rng = random.Random(self.seed)
        if self.cost_model_preset == "cluster":
            model = NetworkCostModel.cluster()
            model.rng = rng
            return model
        if self.cost_model_preset == "geo":
            assignment = self.geo_assignment_seed
            if assignment is None:
                assignment = self.seed if self.seed is not None else 0
            return GeoLatencyCostModel(
                latency_mean_s=self.latency_mean_s,
                latency_std_s=self.latency_std_s,
                bandwidth_mean_bps=self.bandwidth_mean_bps,
                bandwidth_std_bps=self.bandwidth_std_bps,
                timeout_s=self.timeout_s, rng=rng,
                regions=self.geo_regions, assignment_seed=assignment)
        return NetworkCostModel(latency_mean_s=self.latency_mean_s,
                                latency_std_s=self.latency_std_s,
                                bandwidth_mean_bps=self.bandwidth_mean_bps,
                                bandwidth_std_bps=self.bandwidth_std_bps,
                                timeout_s=self.timeout_s, rng=rng)

    def describe(self) -> dict:
        """A flat dictionary of the parameters (used by Table 1 reporting)."""
        return dataclasses.asdict(self)
