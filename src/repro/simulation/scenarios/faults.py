"""Fault profiles: correlated failures layered on top of the background churn.

The paper's churn model (Section 5.1, :class:`repro.simulation.churn.ChurnProcess`)
fails peers *independently* — one Poisson departure at a time.  Correlated
failures are the regime where timestamped retrieval is actually at risk: a
burst can take the responsible of timestamping *and* every replica holder of
a key down inside one event, a partition removes a contiguous arc of the
identifier space, and a lossy network stretches every probe.  Three profiles
ship:

* :class:`CorrelatedFailureBurst` — at one instant, a batch of peers fails
  together (absolute ``size`` or a ``fraction`` of the live population),
  optionally compensated by fresh joins;
* :class:`RegionalPartition` — every peer whose identifier falls in a
  contiguous arc of the identifier space fails at once (a "region" going
  dark), optionally healed later by an equal number of fresh joins;
* :class:`LossyPeriod` — a time window during which the
  :class:`~repro.simulation.cost.NetworkCostModel` is degraded (higher latency,
  lower bandwidth, longer timeouts) via its degradation factors.

A profile ``install``\\ s itself onto the simulation engine; fired events are
appended to the scenario's fault log so runs can report what actually
happened.  Installation consumes no randomness — only fired bursts draw from
the dedicated fault RNG — so seeded runs replay bit-for-bit.

Vocabulary: every profile in this module is **crash-stop** — peers fail,
vanish or slow down, but surviving peers always answer honestly.  The
**byzantine** regime (peers that answer with *falsified* timestamps:
``byzantine-timestamps``, ``eclipse``) lives in
:mod:`repro.simulation.adversary` and registers its profiles into the same
:data:`FAULT_PROFILES` table, so scenario specs reach both families through
one ``kind`` namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Type

from repro.dht.registry import lookup

__all__ = [
    "CorrelatedFailureBurst",
    "FaultProfile",
    "LossyPeriod",
    "RegionalPartition",
    "build_fault",
]


class FaultProfile:
    """Base class: schedules fault events on the simulation engine."""

    #: Registry key used by :func:`build_fault` and the scenario specs.
    kind: str = "base"

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn, cluster=None) -> None:
        """Schedule this profile's events on ``sim``.

        ``network`` is the :class:`~repro.dht.network.DHTNetwork` under test,
        ``cost_model`` the run's :class:`~repro.simulation.cost.NetworkCostModel`,
        ``rng`` the dedicated fault random stream and ``log`` the shared list
        fired events are appended to.  ``churn`` is the run's
        :class:`~repro.simulation.churn.ChurnProcess`, the one way a profile
        fails peers: through
        :meth:`~repro.simulation.churn.ChurnProcess.burst` and
        :meth:`~repro.simulation.churn.ChurnProcess.fail_together`, so
        correlated failures keep its population floor and appear in its
        accounting (profiles that fail no peer take ``churn=None``).
        ``cluster`` is the run's :class:`~repro.api.cluster.Cluster` when
        available: byzantine profiles (:mod:`repro.simulation.adversary`)
        reach the KTS reply seam through it, while crash-stop profiles
        ignore it.
        """
        raise NotImplementedError


@dataclass
class CorrelatedFailureBurst(FaultProfile):
    """A batch of simultaneous failures at one instant of the run.

    Parameters
    ----------
    at:
        When the burst fires, as a fraction of the run duration in ``[0, 1]``.
    size / fraction:
        How many peers fail together: an absolute count, or a fraction of
        the live population at burst time (exactly one may be given;
        the default is ``fraction=0.1``).
    rejoin:
        Whether an equal number of fresh peers joins immediately after the
        burst (keeps the population constant, as the paper's churn does).

    The burst never shrinks the network below the churn process's
    ``min_population``.
    """

    at: float = 0.5
    size: Optional[int] = None
    fraction: Optional[float] = None
    rejoin: bool = True

    kind = "correlated-burst"

    def __post_init__(self) -> None:
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("at must be a run fraction in [0, 1]")
        if self.size is not None and self.fraction is not None:
            raise ValueError("pass either size or fraction, not both")
        if self.size is None and self.fraction is None:
            self.fraction = 0.1
        if self.size is not None and self.size < 1:
            raise ValueError("size must be >= 1")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn, cluster=None) -> None:
        def fire() -> None:
            requested = (self.size if self.size is not None
                         else max(1, round(network.size * self.fraction)))
            failed = len(churn.burst(requested, rng=rng, rejoin=self.rejoin))
            log.append({"kind": self.kind, "time": sim.now, "failed": failed,
                        "rejoined": failed if self.rejoin else 0})

        sim.schedule(self.at * duration_s, fire)


@dataclass
class RegionalPartition(FaultProfile):
    """A contiguous arc of the identifier space goes dark at one instant.

    Every live peer whose identifier lies in ``[start, start + span)`` of the
    identifier space (both as fractions, the arc wraps) fails simultaneously
    — modelling a regional outage or a network partition in which the
    measured side keeps running.  With ``heal_after`` set (a fraction of the
    run duration *after* the partition fires), an equal number of fresh peers
    joins at that later instant (the region's *data* is still lost, as in the
    paper's failure model); ``at + heal_after`` should stay within the run.
    The partition never shrinks the network below the churn process's
    ``min_population``.
    """

    at: float = 0.5
    start: float = 0.0
    span: float = 0.25
    heal_after: Optional[float] = None

    kind = "partition"

    def __post_init__(self) -> None:
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("at must be a run fraction in [0, 1]")
        if not 0.0 <= self.start < 1.0:
            raise ValueError("start must be in [0, 1)")
        if not 0.0 < self.span < 1.0:
            raise ValueError("span must be in (0, 1)")
        if self.heal_after is not None and self.heal_after <= 0:
            raise ValueError("heal_after must be > 0 when given")

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn, cluster=None) -> None:
        def fire() -> None:
            space = 1 << network.bits
            lower = int(self.start * space)
            width = max(1, int(self.span * space))
            in_region = [peer_id for peer_id in network.alive_peer_ids()
                         if (peer_id - lower) % space < width]
            failed = len(churn.fail_together(in_region, rejoin=False))
            log.append({"kind": self.kind, "time": sim.now, "failed": failed,
                        "region": [self.start, self.span]})
            if self.heal_after is not None and failed:
                def heal() -> None:
                    network.now = sim.now
                    for _ in range(failed):
                        network.join_peer()
                    log.append({"kind": self.kind + "-heal", "time": sim.now,
                                "rejoined": failed})

                sim.schedule(self.heal_after * duration_s, heal)

        sim.schedule(self.at * duration_s, fire)


@dataclass
class LossyPeriod(FaultProfile):
    """A window during which the network cost model is degraded.

    Between ``start`` and ``end`` (run fractions), per-message latency is
    multiplied by ``latency_factor``, bandwidth by ``bandwidth_factor`` and
    the failed-peer timeout by ``timeout_factor`` — see
    :meth:`repro.simulation.cost.NetworkCostModel.set_degradation`.  Routing and
    message *counts* are untouched; only the response-time pricing of the
    affected window changes, so the profile isolates "slow network" from
    "lost state".
    """

    start: float = 0.25
    end: float = 0.75
    latency_factor: float = 5.0
    bandwidth_factor: float = 0.25
    timeout_factor: float = 1.0

    kind = "lossy-period"

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ValueError("need 0 <= start < end <= 1")
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 (a lossy period slows)")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.timeout_factor < 1.0:
            raise ValueError("timeout_factor must be >= 1")

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn=None, cluster=None) -> None:
        def degrade() -> None:
            cost_model.set_degradation(latency_factor=self.latency_factor,
                                       bandwidth_factor=self.bandwidth_factor,
                                       timeout_factor=self.timeout_factor)
            log.append({"kind": self.kind, "time": sim.now, "phase": "degrade"})

        def restore() -> None:
            cost_model.clear_degradation()
            log.append({"kind": self.kind, "time": sim.now, "phase": "restore"})

        sim.schedule(self.start * duration_s, degrade)
        sim.schedule(self.end * duration_s, restore)


#: Profile kind -> class, the dispatch table of :func:`build_fault`.
FAULT_PROFILES: Dict[str, Type[FaultProfile]] = {
    CorrelatedFailureBurst.kind: CorrelatedFailureBurst,
    RegionalPartition.kind: RegionalPartition,
    LossyPeriod.kind: LossyPeriod,
}


def build_fault(config: Mapping[str, Any]) -> FaultProfile:
    """Build a fault profile from a scenario-spec dict.

    ``config["kind"]`` selects the class; the remaining keys are passed to
    its constructor.
    """
    options = dict(config)
    name = options.pop("kind", None)
    return lookup(FAULT_PROFILES, name, "fault kind")(**options)
