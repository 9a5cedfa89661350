"""Adversarial fault profiles: byzantine responsibles and eclipse attacks.

Every scenario shipped before this module is *honest-but-faulty*: peers
crash, partitions cut the identifier space, the network slows — but nobody
lies.  The paper's currency guarantee (Section 3) is only probabilistic,
and the interesting failure mode in a deployed DHT is the hostile one: a
responsible of timestamping that *answers* ``last_ts`` with a stale or
fabricated value, or an adversary that captures the overlay neighbourhood
around a key so every timestamp request lands on a colluding peer.

Two fault profiles (entries of
:data:`repro.simulation.scenarios.faults.FAULT_PROFILES` like the
crash-stop ones) implement that regime:

* :class:`ByzantineTimestamps` — at a configurable instant, a seeded
  fraction of the live population turns byzantine: whenever one of these
  peers answers a ``last_ts`` request as responsible of timestamping, its
  reply is falsified by a :class:`TimestampLiar` strategy (``stale-replay``,
  ``max-lag`` or ``random-lie``);
* :class:`EclipseAttack` — a deterministic *capture set* of peers around a
  target point of the identifier space (per-overlay construction: a Chord
  successor span, the Kademlia XOR-closest peers, a CAN ring
  neighbourhood — see :func:`eclipse_capture_set`) turns byzantine with the
  ``stale-replay`` strategy, modelling an adversary that occupies the
  region a key's timestamp requests route into.

Both profiles act through the value-only reply interceptor of
:meth:`repro.core.kts.KeyBasedTimestampService.set_reply_interceptor`:
message counts, routing and every RNG stream are untouched, which is what
keeps an adversarial run at byzantine ``fraction=0`` bit-identical to its
honest twin (pinned by ``tests/adversary/test_honest_parity.py``).  Lies
target the *retrieval* side (``last_ts``) because that is where the paper's
currency guarantee lives; ``gen_ts`` stays honest.

Three adversarial scenarios join the honest eleven in
:data:`~repro.simulation.scenarios.registry.SCENARIOS`:
``byzantine-timestamps``, ``eclipse`` and ``geo-latency`` (the latter pins
the per-region RTT cost model of
:class:`repro.simulation.cost.GeoLatencyCostModel` as a scenario override).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simulation.scenarios.faults import FAULT_PROFILES, FaultProfile
from repro.simulation.scenarios.registry import SCENARIOS
from repro.simulation.scenarios.spec import ScenarioSpec

__all__ = [
    "ByzantineTimestamps",
    "EclipseAttack",
    "TimestampLiar",
    "byzantine_scenario_spec",
    "eclipse_capture_set",
]

#: The three falsification strategies of :class:`TimestampLiar`.
STRATEGIES = ("stale-replay", "max-lag", "random-lie")

#: Overlay protocol class name (:attr:`repro.dht.model.DHTProtocol.protocol_name`)
#: -> eclipse capture-set construction mode.
_PROTOCOL_CAPTURE_MODES = {
    "ChordRing": "successor-span",
    "KademliaOverlay": "xor-closest",
    "CanSpace": "ring-neighbourhood",
}

#: The capture-set construction modes :func:`eclipse_capture_set` accepts.
CAPTURE_MODES = tuple(sorted(_PROTOCOL_CAPTURE_MODES.values()))


class TimestampLiar:
    """Falsifies ``last_ts`` replies of a set of byzantine peers.

    One liar instance is installed per run as the KTS reply interceptor
    (:meth:`~repro.core.kts.KeyBasedTimestampService.set_reply_interceptor`);
    several adversarial profiles in one scenario share it, each corrupting
    its own peer set.  For an honest responsible the true value passes
    through unchanged.

    Strategies (given the true last-generated value ``v`` for a key):

    * ``stale-replay`` — freeze the first value this peer was asked about
      (per key) and replay it forever, hiding every later update;
    * ``max-lag`` — report ``v - lag`` (floored at "no timestamp yet"),
      a bounded-staleness lie;
    * ``random-lie`` — report a value drawn uniformly from
      ``[0, v + lag]`` by the liar's dedicated RNG (it may fabricate a
      timestamp *ahead* of the truth).

    The liar never touches message accounting and only the ``random-lie``
    strategy consumes randomness — from its own stream, seeded off the
    fault RNG at corruption time — so honest RNG streams stay aligned.
    """

    def __init__(self) -> None:
        #: peer id -> (strategy, lag, dedicated rng or None)
        self._byzantine: Dict[int, Tuple[str, int, Optional[random.Random]]] = {}
        #: (peer id, key) -> frozen value for the stale-replay strategy
        self._frozen: Dict[Tuple[int, Any], Optional[int]] = {}
        #: Number of falsified replies served (diagnostics / tests).
        self.lies_served = 0

    def corrupt(self, peers: Sequence[int], strategy: str, *, lag: int = 1,
                rng: Optional[random.Random] = None) -> None:
        """Mark ``peers`` byzantine under ``strategy``.

        ``rng`` is required for ``random-lie`` (the liar's private stream);
        the other strategies are deterministic in the observed truth.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"expected one of {STRATEGIES}")
        if lag < 0:
            raise ValueError("lag must be >= 0")
        if strategy == "random-lie" and rng is None:
            raise ValueError("the random-lie strategy needs a dedicated rng")
        for peer in peers:
            self._byzantine[peer] = (strategy, lag, rng)

    def __call__(self, responsible: int, key: Any,
                 value: Optional[int]) -> Optional[int]:
        """The KTS reply interceptor: falsify ``value`` if ``responsible`` lies."""
        plan = self._byzantine.get(responsible)
        if plan is None:
            return value
        strategy, lag, rng = plan
        self.lies_served += 1
        if strategy == "stale-replay":
            slot = (responsible, key)
            if slot not in self._frozen:
                self._frozen[slot] = value
            return self._frozen[slot]
        if strategy == "max-lag":
            if value is None:
                return None
            lagged = value - lag
            return None if lagged <= 0 else lagged
        # random-lie: fabricate anywhere in [0, truth + lag].
        ceiling = (value if value is not None else 0) + lag
        fabricated = rng.randint(0, ceiling)
        return None if fabricated == 0 else fabricated


def _install_liar(cluster) -> TimestampLiar:
    """The run's shared :class:`TimestampLiar`, installing one if needed."""
    if cluster is None or cluster.kts is None:
        raise ValueError("adversarial profiles need the run's cluster (with a "
                         "KTS instance); the harness passes it to "
                         "Scenario.install_faults")
    interceptor = cluster.kts.reply_interceptor
    if isinstance(interceptor, TimestampLiar):
        return interceptor
    liar = TimestampLiar()
    cluster.kts.set_reply_interceptor(liar)
    return liar


@dataclass
class ByzantineTimestamps(FaultProfile):
    """A seeded fraction of live peers serves falsified ``last_ts`` replies.

    Parameters
    ----------
    fraction:
        Share of the live population that turns byzantine when the profile
        fires (``0`` keeps the profile completely inert: no RNG draws, no
        log entries — the honest-twin parity contract).
    strategy:
        ``stale-replay`` (default), ``max-lag`` or ``random-lie`` — see
        :class:`TimestampLiar`.
    lag:
        Staleness bound of ``max-lag`` and fabrication headroom of
        ``random-lie``.
    at:
        When the peers turn, as a fraction of the run duration (default
        ``0.0``: byzantine from the start).
    """

    fraction: float = 0.1
    strategy: str = "stale-replay"
    lag: int = 1
    at: float = 0.0

    kind = "byzantine-timestamps"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, "
                             f"got {self.strategy!r}")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("at must be a run fraction in [0, 1]")

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn=None, cluster=None) -> None:
        """Schedule the byzantine turn; inert (zero draws) at ``fraction=0``."""
        def fire() -> None:
            if self.fraction <= 0.0:
                return
            network.now = sim.now
            alive = network.alive_peer_ids()
            count = min(len(alive), max(1, round(len(alive) * self.fraction)))
            byzantine = rng.sample(alive, count)
            lie_rng = (random.Random(rng.getrandbits(64))
                       if self.strategy == "random-lie" else None)
            liar = _install_liar(cluster)
            liar.corrupt(byzantine, self.strategy, lag=self.lag, rng=lie_rng)
            log.append({"kind": self.kind, "time": sim.now,
                        "byzantine": count, "strategy": self.strategy})

        sim.schedule(self.at * duration_s, fire)


def eclipse_capture_set(mode: str, alive_ids: Sequence[int], *, bits: int,
                        point: int, count: int) -> Tuple[int, ...]:
    """The deterministic set of peers an eclipse adversary captures.

    ``mode`` selects the per-overlay construction over the identifier space
    ``[0, 2^bits)``:

    * ``successor-span`` (Chord) — the ``count`` live peers clockwise from
      ``point`` (the successor span that resolves ``responsible_for``);
    * ``xor-closest`` (Kademlia) — the ``count`` live peers closest to
      ``point`` under the XOR metric (the k-bucket neighbourhood the lookup
      converges into);
    * ``ring-neighbourhood`` (CAN, whose 1-d zone space behaves like a
      ring here) — the ``count`` live peers at smallest ring distance from
      ``point`` (the neighbour zones around the target's zone).

    Pure function of its arguments — no RNG, no network access — so the
    capture set is exact and replayable (pinned by
    ``tests/adversary/test_attack_conformance.py``).
    """
    if mode not in CAPTURE_MODES:
        raise ValueError(f"unknown capture mode {mode!r}; "
                         f"expected one of {CAPTURE_MODES}")
    if count < 1:
        raise ValueError("count must be >= 1")
    space = 1 << bits
    ordered = sorted(set(alive_ids))
    if not ordered:
        return ()
    limit = min(count, len(ordered))
    if mode == "successor-span":
        # Clockwise from `point`, wrapping: sort by (id - point) mod space.
        ring = sorted(ordered, key=lambda peer: ((peer - point) % space, peer))
        return tuple(sorted(ring[:limit]))
    if mode == "xor-closest":
        closest = sorted(ordered, key=lambda peer: (peer ^ point, peer))
        return tuple(sorted(closest[:limit]))
    # ring-neighbourhood: smallest wrap-around distance on the ring.
    def ring_distance(peer: int) -> int:
        ahead = (peer - point) % space
        return min(ahead, space - ahead)

    nearest = sorted(ordered, key=lambda peer: (ring_distance(peer), peer))
    return tuple(sorted(nearest[:limit]))


@dataclass
class EclipseAttack(FaultProfile):
    """An adversary captures the overlay neighbourhood around a target point.

    At ``at`` (run fraction), the :func:`eclipse_capture_set` of ``count``
    live peers around ``point`` (a fraction of the identifier space) turns
    byzantine with the ``stale-replay`` strategy: every ``last_ts`` request
    they answer as responsible of timestamping replays the first value they
    served, freezing the key's visible currency at capture time.

    ``mode`` is one of :data:`CAPTURE_MODES`, or ``"auto"`` (default) to
    derive it from the overlay actually running
    (:attr:`~repro.dht.model.DHTProtocol.protocol_name`).  Capture-set
    construction is deterministic — the profile consumes no randomness at
    all — so the affected set is exact per (overlay, population, point).
    """

    point: float = 0.0
    count: int = 8
    at: float = 0.0
    mode: str = "auto"

    kind = "eclipse"

    def __post_init__(self) -> None:
        if not 0.0 <= self.point < 1.0:
            raise ValueError("point must be a space fraction in [0, 1)")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("at must be a run fraction in [0, 1]")
        if self.mode != "auto" and self.mode not in CAPTURE_MODES:
            raise ValueError(f"mode must be 'auto' or one of {CAPTURE_MODES}, "
                             f"got {self.mode!r}")

    def capture_mode_for(self, network) -> str:
        """Resolve ``"auto"`` against the overlay the network actually runs."""
        if self.mode != "auto":
            return self.mode
        name = network.protocol.protocol_name
        mode = _PROTOCOL_CAPTURE_MODES.get(name)
        if mode is None:
            raise ValueError(
                f"no capture-set construction is registered for overlay "
                f"{name!r}; pass an explicit mode ({', '.join(CAPTURE_MODES)})")
        return mode

    def install(self, sim, *, network, cost_model, rng, duration_s: float,
                log: List[Dict[str, Any]], churn=None, cluster=None) -> None:
        """Schedule the capture event (deterministic: no RNG draws at all)."""
        def fire() -> None:
            network.now = sim.now
            mode = self.capture_mode_for(network)
            target = int(self.point * (1 << network.bits))
            captured = eclipse_capture_set(mode, network.alive_peer_ids(),
                                           bits=network.bits, point=target,
                                           count=self.count)
            if not captured:
                return
            liar = _install_liar(cluster)
            liar.corrupt(captured, "stale-replay")
            log.append({"kind": self.kind, "time": sim.now, "mode": mode,
                        "captured": len(captured), "point": target})

        sim.schedule(self.at * duration_s, fire)


def byzantine_scenario_spec(fraction: float, *,
                            strategy: str = "stale-replay",
                            lag: int = 1, at: float = 0.0,
                            name: Optional[str] = None) -> ScenarioSpec:
    """A ``byzantine-timestamps`` scenario spec at an explicit ``fraction``.

    The attack grid's records (``attack-*`` in
    :data:`repro.experiments.figures.EXPERIMENTS`) build one spec per swept
    fraction with this helper, so every cell shares the baseline workload
    and differs only in the byzantine knobs.
    """
    return ScenarioSpec(
        name=name if name is not None else "byzantine-timestamps",
        description=f"Byzantine responsibles ({strategy}) at fraction "
                    f"{fraction:g} on the baseline workload.",
        faults=({"kind": ByzantineTimestamps.kind, "fraction": fraction,
                 "strategy": strategy, "lag": lag, "at": at},))


# ----------------------------------------------------------- registration
# Adversarial fault kinds join the crash-stop ones in the shared dispatch
# table, so ScenarioSpec fault configs reach them through build_fault.
FAULT_PROFILES[ByzantineTimestamps.kind] = ByzantineTimestamps
FAULT_PROFILES[EclipseAttack.kind] = EclipseAttack

# The adversarial scenarios shipped by this module, validated like the
# honest ones.
SCENARIOS.update((spec.name, spec.validate()) for spec in (
    ScenarioSpec(
        name="byzantine-timestamps",
        description="10% of the peers serve stale-replay last_ts lies from "
                    "the start of the run (baseline workload).",
        faults=({"kind": "byzantine-timestamps", "fraction": 0.1,
                 "strategy": "stale-replay"},)),
    ScenarioSpec(
        name="eclipse",
        description="An adversary captures the 8-peer overlay neighbourhood "
                    "around the start of the identifier space (per-overlay "
                    "capture set) and freezes its last_ts answers.",
        faults=({"kind": "eclipse", "point": 0.0, "count": 8},)),
    ScenarioSpec(
        name="geo-latency",
        description="Baseline workload priced by the 3-region geo RTT "
                    "matrix instead of the uniform Table 1 WAN.",
        overrides={"cost_model_preset": "geo", "geo_regions": 3}),
))
