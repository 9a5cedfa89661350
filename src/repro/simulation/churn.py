"""Churn model (Section 5.1).

Peer departures are timed by a Poisson process with rate λ (Table 1:
1/second): each departure is a simulator callback that draws the interval to
the next one and schedules it.  At each departure a peer chosen uniformly at
random leaves the network; with probability ``failure_rate`` the departure is
a failure (the peer's replicas and counters are lost), otherwise it is a
normal leave (data and counters are handed over).  Each departure is
compensated by the join of a fresh peer, keeping the population constant as
in the paper (following Rhea et al.'s churn methodology).

Churn is a **crash-stop** fault model: departed peers stop answering, but
every surviving peer answers honestly.  The **byzantine** regime — peers
that stay up and serve falsified timestamps — is modelled separately in
:mod:`repro.simulation.adversary`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.dht.network import DHTNetwork
from repro.simulation.engine import Simulator
from repro.simulation.processes import exponential_interval

__all__ = ["ChurnEvent", "ChurnProcess"]


@dataclass(frozen=True)
class ChurnEvent:
    """A record of one executed churn event.

    ``joined_peer`` is ``None`` for uncompensated departures (correlated
    bursts and partitions fired with ``rejoin=False``).
    """

    time: float
    departed_peer: int
    joined_peer: Optional[int]
    failed: bool


class ChurnProcess:
    """Drives Poisson churn on a :class:`DHTNetwork` through the event engine.

    Parameters
    ----------
    sim / network:
        The event engine and the network to churn.
    rate_per_s:
        Departure rate (Table 1: 1 departure/second network-wide).
    failure_rate:
        Fraction of departures that are failures rather than normal leaves.
    until:
        Optional end time: no departure is scheduled after it.
    min_population:
        Safety floor: departures are skipped when the network would drop below
        this size (keeps degenerate configurations well-defined).
    """

    def __init__(self, sim: Simulator, network: DHTNetwork, *, rate_per_s: float,
                 failure_rate: float, rng: random.Random,
                 until: Optional[float] = None, min_population: int = 2) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        self.sim = sim
        self.network = network
        self.failure_rate = failure_rate
        self.rng = rng
        self.min_population = min_population
        self.rate_per_s = rate_per_s
        self.until = until
        self.events: List[ChurnEvent] = []
        if rate_per_s > 0:
            self._schedule_next()

    @property
    def event_count(self) -> int:
        """Number of churn events executed so far."""
        return len(self.events)

    @property
    def failure_count(self) -> int:
        """Number of those events that were failures."""
        return sum(1 for event in self.events if event.failed)

    # ------------------------------------------------------ correlated faults
    def fail_together(self, victims, *, rejoin: bool = True) -> List[ChurnEvent]:
        """Fail ``victims`` simultaneously (one correlated event batch).

        Unlike the background Poisson departures, the whole batch fails at the
        *same* simulated instant — replacement joins (when ``rejoin``) only
        happen after every victim is down, so a batch can take out the
        timestamping responsible and every replica holder of a key at once.
        Executed failures are recorded as :class:`ChurnEvent`\\ s (and counted
        by :attr:`event_count`/:attr:`failure_count`); the ``min_population``
        floor still applies.
        """
        self.network.now = self.sim.now
        failed: List[int] = []
        for peer_id in victims:
            if self.network.size <= self.min_population:
                break
            if not self.network.is_alive(peer_id):
                continue
            self.network.fail_peer(peer_id)
            failed.append(peer_id)
        executed: List[ChurnEvent] = []
        for peer_id in failed:
            joined = self.network.join_peer() if rejoin else None
            executed.append(ChurnEvent(time=self.sim.now, departed_peer=peer_id,
                                       joined_peer=joined, failed=True))
        self.events.extend(executed)
        return executed

    def burst(self, count: int, *, rng: random.Random,
              rejoin: bool = True) -> List[ChurnEvent]:
        """A correlated failure burst: ``count`` random peers fail at once.

        The victims are drawn from ``rng``, never from the process's own
        stream: fault profiles pass their dedicated one, so bursts never
        perturb the background churn schedule of a seeded run.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        alive = self.network.alive_peer_ids()
        budget = max(0, len(alive) - self.min_population)
        size = min(count, budget)
        victims = rng.sample(alive, size) if size else []
        return self.fail_together(victims, rejoin=rejoin)

    # ------------------------------------------------------------------ action
    def _schedule_next(self) -> None:
        """Draw the interval to the next departure and schedule it, unless
        it falls after ``until``."""
        interval = exponential_interval(self.rate_per_s, self.rng)
        if self.until is None or self.sim.now + interval <= self.until:
            self.sim.schedule(interval, self._churn_once)

    def _churn_once(self) -> None:
        """One departure compensated by a join, then the next departure."""
        self.network.now = self.sim.now
        if self.network.size > self.min_population:
            departing = self.network.random_alive_peer()
            failed = self.rng.random() * 100.0 < self.failure_rate * 100.0
            if failed:
                self.network.fail_peer(departing)
            else:
                self.network.leave_peer(departing)
            joined = self.network.join_peer()
            self.events.append(ChurnEvent(time=self.sim.now, departed_peer=departing,
                                          joined_peer=joined, failed=failed))
        self._schedule_next()
