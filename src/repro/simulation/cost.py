"""Network cost model: from message traces to response times.

Table 1 of the paper defines the simulated network: per-message latency drawn
from a normal distribution (mean 200 ms, variance 100) and bandwidth drawn
from a normal distribution (mean 56 kbps, variance 32).  The response time of
an operation is the accumulation of its messages' latency plus transfer
delays; messages that hit a failed peer additionally wait for a timeout before
the sender retries.

Two presets mirror the paper's two testbeds:

* :meth:`NetworkCostModel.wide_area` — Table 1 (the SimJava simulation);
* :meth:`NetworkCostModel.cluster` — the 64-node, 1 Gbps cluster of Section
  5.2, modelled as a small per-message processing latency and LAN bandwidth.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dht.messages import Message, OperationTrace

__all__ = ["GeoLatencyCostModel", "NetworkCostModel"]


@dataclass
class NetworkCostModel:
    """Converts message traces into durations.

    Attributes
    ----------
    latency_mean_s / latency_std_s:
        Per-message network latency (seconds).  Table 1: mean 200 ms,
        variance 100 (ms²) → standard deviation 10 ms.
    bandwidth_mean_bps / bandwidth_std_bps:
        Link bandwidth in bits/second.  Table 1: mean 56 kbps, variance 32
        (kbps²) → standard deviation ≈ 5.66 kbps.
    timeout_s:
        Extra delay paid when a message is sent to a failed peer before the
        sender gives up and retries.
    rng:
        Random source; a model built with a seed is fully reproducible.
    """

    latency_mean_s: float = 0.2
    latency_std_s: float = 0.01
    bandwidth_mean_bps: float = 56_000.0
    bandwidth_std_bps: float = 5_660.0
    timeout_s: float = 2.0
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.latency_mean_s < 0 or self.bandwidth_mean_bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth must be > 0")
        if self.rng is None:
            # reprolint: allow[REP002] reason=documented convenience default for ad-hoc use; every replayed run injects a seeded rng (tests/simulation/test_cost.py)
            self.rng = random.Random()
        self._latency_factor = 1.0
        self._bandwidth_factor = 1.0
        self._timeout_factor = 1.0

    # ------------------------------------------------------------ degradation
    def set_degradation(self, *, latency_factor: float = 1.0,
                        bandwidth_factor: float = 1.0,
                        timeout_factor: float = 1.0) -> None:
        """Enter a degraded (lossy) period: scale subsequent delay samples.

        Until :meth:`clear_degradation`, sampled latencies are multiplied by
        ``latency_factor``, sampled bandwidths by ``bandwidth_factor`` and the
        failed-peer timeout by ``timeout_factor``.  Sampling still consumes
        exactly one RNG draw per message, so seeded runs stay aligned with
        their undegraded twins — only the pricing changes.  Used by the
        scenario engine's lossy-period fault profile
        (:class:`repro.simulation.scenarios.faults.LossyPeriod`).
        """
        if latency_factor <= 0 or bandwidth_factor <= 0 or timeout_factor <= 0:
            raise ValueError("degradation factors must be > 0")
        self._latency_factor = latency_factor
        self._bandwidth_factor = bandwidth_factor
        self._timeout_factor = timeout_factor

    def clear_degradation(self) -> None:
        """Leave the degraded period: restore nominal pricing."""
        self._latency_factor = 1.0
        self._bandwidth_factor = 1.0
        self._timeout_factor = 1.0

    @property
    def degraded(self) -> bool:
        """Whether a degradation is currently in effect."""
        return (self._latency_factor, self._bandwidth_factor,
                self._timeout_factor) != (1.0, 1.0, 1.0)

    # --------------------------------------------------------------- presets
    @classmethod
    def wide_area(cls, seed: Optional[int] = None) -> "NetworkCostModel":
        """The Table 1 wide-area network (200 ms latency, 56 kbps)."""
        return cls(rng=random.Random(seed))

    @classmethod
    def cluster(cls, seed: Optional[int] = None) -> "NetworkCostModel":
        """The 64-node cluster of Section 5.2.

        The cluster interconnect is 1 Gbps with sub-millisecond wire latency;
        the dominant per-message cost there is protocol/processing overhead,
        which we model as a 50 ms mean per-message latency.  This calibration
        puts the absolute response times in the range reported by Figure 6
        (≈0.3–2.5 s for 10–64 peers).
        """
        return cls(latency_mean_s=0.05, latency_std_s=0.005,
                   bandwidth_mean_bps=1_000_000_000.0, bandwidth_std_bps=0.0,
                   timeout_s=0.5, rng=random.Random(seed))

    # ---------------------------------------------------------------- sampling
    def sample_latency(self, mean_s: Optional[float] = None) -> float:
        """One per-message latency sample (truncated at a small positive floor).

        ``mean_s`` replaces the model's mean latency for the link sampled.
        """
        if mean_s is None:
            mean_s = self.latency_mean_s
        sample = max(1e-4, self.rng.gauss(mean_s, self.latency_std_s))
        return sample * self._latency_factor

    def sample_bandwidth(self) -> float:
        """One bandwidth sample in bits/second (truncated at 1 kbps)."""
        if self.bandwidth_std_bps <= 0:
            return self.bandwidth_mean_bps * self._bandwidth_factor
        sample = max(1_000.0, self.rng.gauss(self.bandwidth_mean_bps,
                                             self.bandwidth_std_bps))
        return sample * self._bandwidth_factor

    # ---------------------------------------------------------------- durations
    def link_latency_mean_s(self, source: Optional[int], dest: Optional[int]) -> float:
        """Mean latency from ``source`` to ``dest``: uniform in this model."""
        return self.latency_mean_s

    def _delay(self, size_bytes: int, source: Optional[int],
               dest: Optional[int], timed_out: bool) -> float:
        delay = self.sample_latency(self.link_latency_mean_s(source, dest))
        delay += (size_bytes * 8) / self.sample_bandwidth()
        if timed_out:
            delay += self.timeout_s * self._timeout_factor
        return delay

    def message_delay(self, message: Message) -> float:
        """Latency + transfer time (+ timeout) for a single message."""
        return self._delay(message.size_bytes, message.source, message.dest,
                           message.timed_out)

    def duration(self, trace: OperationTrace) -> float:
        """Total response time of an operation whose messages are sent sequentially.

        The services of the paper are sequential by construction: UMS probes
        replicas one at a time (stopping at the first current one) and KTS
        performs a lookup followed by a request/reply exchange, so summing the
        per-message delays reproduces the SimJava accounting — read off the
        trace's columns, one latency and one bandwidth draw per message.
        """
        late = set(trace.timed_out)
        delay = self._delay
        return sum(delay(size_bytes, source, dest, index in late)
                   for index, (size_bytes, source, dest)
                   in enumerate(zip(trace.size_bytes, trace.sources, trace.dests)))

    #: Per-message framing overhead charged by :meth:`traffic_bytes`.  Matches
    #: the 4-byte length prefix of the wire codec's frame format
    #: (``repro.net.codec.FRAME_HEADER_BYTES``) — kept as a local constant so
    #: the simulation layer does not import upward into ``repro.net``.
    frame_overhead_bytes: int = 4

    def traffic_bytes(self, trace: OperationTrace) -> int:
        """Total wire bytes of an operation: payloads plus framing overhead.

        Deterministic (no sampling): the byte-denominated twin of the
        message-count communication cost, used for the bytes-per-op curves.
        """
        return trace.total_bytes + self.frame_overhead_bytes * trace.message_count

    def expected_message_delay(self, size_bytes: int = 128) -> float:
        """Deterministic expectation of a message delay (no sampling); handy in tests."""
        return self.latency_mean_s + (size_bytes * 8) / self.bandwidth_mean_bps


@dataclass
class GeoLatencyCostModel(NetworkCostModel):
    """Per-region RTT pricing: the Table 1 WAN made geography-aware.

    Peers are assigned to ``regions`` deterministically (a seeded hash of
    the peer id — no RNG draws, so attaching the model never perturbs a
    run's random streams) and the per-message latency mean becomes half the
    RTT between the source's and destination's regions instead of the
    uniform ``latency_mean_s``.  Sampling still consumes exactly one latency
    draw and one bandwidth draw per message (``latency_std_s`` prices the
    jitter around the regional mean), and the degradation factors of
    :meth:`NetworkCostModel.set_degradation` apply unchanged — so scenario
    fault profiles compose with geo pricing.

    With ``regions=1`` the default matrix degenerates to
    ``[[2 * latency_mean_s]]`` and the model is bit-identical to the base
    wide-area :class:`NetworkCostModel` (pinned by
    ``tests/adversary/test_honest_parity.py``).

    Attributes
    ----------
    regions:
        Number of geographic regions (>= 1).
    assignment_seed:
        Seed of the deterministic peer -> region hash; two models with the
        same seed agree on every peer's region.
    rtt_matrix:
        Symmetric ``regions x regions`` matrix of round-trip times in
        seconds.  ``None`` builds the default: intra-region RTT
        ``2 * latency_mean_s`` and inter-region RTT growing with region
        distance (see :meth:`default_rtt_matrix`).
    """

    regions: int = 3
    assignment_seed: int = 0
    rtt_matrix: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.regions < 1:
            raise ValueError("regions must be >= 1")
        if self.rtt_matrix is None:
            self.rtt_matrix = self.default_rtt_matrix(self.regions,
                                                      self.latency_mean_s)
        else:
            self.rtt_matrix = tuple(tuple(row) for row in self.rtt_matrix)
        if len(self.rtt_matrix) != self.regions:
            raise ValueError(f"rtt_matrix must be {self.regions}x{self.regions}")
        for row_index, row in enumerate(self.rtt_matrix):
            if len(row) != self.regions:
                raise ValueError(f"rtt_matrix must be {self.regions}x{self.regions}")
            for column_index, rtt in enumerate(row):
                if rtt <= 0:
                    raise ValueError("every RTT must be > 0")
                if rtt != self.rtt_matrix[column_index][row_index]:
                    raise ValueError("rtt_matrix must be symmetric")
        self._region_cache: Dict[int, int] = {}

    @staticmethod
    def default_rtt_matrix(regions: int,
                           latency_mean_s: float) -> Tuple[Tuple[float, ...], ...]:
        """The default RTT matrix: Table 1 intra-region, distance-scaled inter.

        Intra-region RTT is ``2 * latency_mean_s`` (so each one-way hop
        matches the uniform model's mean) and the RTT between regions ``i``
        and ``j`` grows by 75% of that base per unit of region distance —
        a coarse continental gradient that keeps the single-region case an
        exact degeneration of the uniform model.
        """
        base = 2.0 * latency_mean_s
        return tuple(
            tuple(base * (1.0 + 0.75 * abs(row - column))
                  for column in range(regions))
            for row in range(regions))

    # ------------------------------------------------------------- regions
    def region_of(self, peer: Optional[int]) -> int:
        """The region of ``peer``: a seeded hash, stable across the run.

        ``None`` (a client-side endpoint with no peer id, ``-1`` in a trace
        column) is pinned to region 0 so every message prices alike.
        """
        if peer is None or peer < 0:
            return 0
        region = self._region_cache.get(peer)
        if region is None:
            digest = hashlib.blake2s(
                f"geo-region:{self.assignment_seed}:{peer}".encode()).digest()
            region = int.from_bytes(digest[:8], "big") % self.regions
            self._region_cache[peer] = region
        return region

    def link_latency_mean_s(self, source: Optional[int],
                            dest: Optional[int]) -> float:
        """Half the RTT between the regions of ``source`` and ``dest``."""
        return self.rtt_matrix[self.region_of(source)][self.region_of(dest)] / 2.0

    def expected_message_delay(self, size_bytes: int = 128) -> float:
        """Expectation over uniformly random region pairs (no sampling)."""
        total = sum(sum(row) for row in self.rtt_matrix)
        mean_rtt = total / (self.regions * self.regions)
        return mean_rtt / 2.0 + (size_bytes * 8) / self.bandwidth_mean_bps
