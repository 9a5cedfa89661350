"""The four workloads: seeded op streams, the oracle, and the measured loop.

Everything here drives the system through its public API only
(``Cluster.build`` / ``Session``, ``cluster.network.join_peer`` /
``leave_peer`` / ``fail_peer`` / ``now``, ``connect``); the system under test
receives the generated operations, never the seed.

The loop is **closed**: one client thread issues the next call only after
the previous one returned (``Session`` callers block for their reply, and
two vCPUs cannot offer more than one connection's worth of load).  The op
count is fixed by ``--seconds`` and the workload's sizing constant - not by
a clock - so every counter repeats exactly for one seed.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.spans import CHURN_OP, Recorder
from bench.yardstick import Bracket

__all__ = ["CLUSTER_SEED", "SCALES", "SEGMENTS", "WARMUP_CALLS", "WORKLOADS",
           "Churn", "Execution", "Op", "Phase", "REPLICAS", "Scale", "Verifier", "Workload",
           "call_count", "digests_agree", "key_names", "op_stream",
           "preload", "run_phase"]

#: The measured phase is cut into this many equal segments, each bracketed
#: by yardstick readings; a run's figure is the median over segments.
SEGMENTS = 40

#: Calls executed (and verified) before the measured phase so that lazily
#: built routing state and hash caches are in place.  Part of the op stream,
#: so the sim/tcp pair stays aligned.
WARMUP_CALLS = 80

#: Seed of ``Cluster.build``.  Fixed: ``--seed`` varies the *inputs* (which
#: keys, reads or writes, which values, which peers churn); the overlay the
#: inputs run against is part of the system's configuration, and keeping it
#: fixed keeps hop counts comparable from one seed to the next.
CLUSTER_SEED = 2007

#: Replication factor |Hr| of every workload (the paper's default).
REPLICAS = 10

#: Simulated seconds ``network.now`` advances per call under churn, so that
#: periodic stabilisation fires (every 30 simulated seconds by default).
CHURN_CLOCK_STEP = 0.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    One call in every block of ``write_every`` consecutive calls is a write,
    at a position the seed picks: the read/write mix is exact (a write costs
    about five reads, so a mix left to chance would move every per-op average
    with the seed) while the order stays random.

    ``calls_per_second`` sizes the run: the measured phase executes
    ``calls_per_second * --seconds`` Session calls (rounded so that every
    one of the :data:`SEGMENTS` segments holds whole blocks), chosen so that
    the phase takes about ``--seconds`` of wall-clock on the reference
    machine.
    """

    name: str
    why: str
    backend: str
    protocol: str
    stream: str
    batch: int
    write_every: int
    churn_every: int
    calls_per_second: float


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="sim_point",
        why=("in-process Session on chord, 80/20 single-key retrieve/insert: "
             "overlay routing and trace recording are ~80 % of the work and "
             "repro.net none, so core-path changes show here and nowhere else"),
        backend="sim", protocol="chord", stream="point", batch=1,
        write_every=5, churn_every=0, calls_per_second=3600.0),
    Workload(
        name="tcp_point",
        why=("the sim_point op stream against a server process over loopback "
             "TCP: codec, client and server are ~87 % of a retrieve, per-frame "
             "cost dominates, and the sim/tcp pair isolates transport cost"),
        backend="tcp", protocol="chord", stream="point", batch=1,
        write_every=5, churn_every=0, calls_per_second=700.0),
    Workload(
        name="tcp_batch",
        why=("16-key retrieve_many/insert_many over TCP, half writes: batched "
             "KTS/DHT paths, ~700-message traces and zlib-sized frames, so a "
             "per-frame gain that costs per-byte work or writes shows"),
        backend="tcp", protocol="chord", stream="batch", batch=16,
        write_every=2, churn_every=0, calls_per_second=46.0),
    Workload(
        name="sim_churn",
        why=("in-process Session on kademlia with a departure+join every 5 "
             "calls: version-keyed caches, bucket state, KTS counter transfer "
             "and replica hand-over work; the paper's currency-under-churn case"),
        backend="sim", protocol="kademlia", stream="churn", batch=1,
        write_every=5, churn_every=5, calls_per_second=640.0),
)}


@dataclass(frozen=True)
class Scale:
    """Population sizes; ``smoke`` exists for the bench's own test only."""

    peers: int
    keys: int
    calls_per_segment: Optional[int]  # None: sized from --seconds


SCALES: Dict[str, Scale] = {
    "full": Scale(peers=1000, keys=2048, calls_per_segment=None),
    "smoke": Scale(peers=64, keys=128, calls_per_segment=10),
}


def call_count(workload: Workload, scale: Scale, seconds: int) -> int:
    """Measured Session calls of one run: a multiple of :data:`SEGMENTS`."""
    if scale.calls_per_segment is not None:
        return SEGMENTS * scale.calls_per_segment
    blocks = round(workload.calls_per_second * seconds / SEGMENTS
                   / workload.write_every)
    return SEGMENTS * workload.write_every * max(1, blocks)


def key_names(count: int) -> List[str]:
    """The preloaded key population."""
    return [f"key-{index:05d}" for index in range(count)]


def preload(session: Any, keys: Sequence[str]) -> None:
    """Bulk-load every key with write number 0 through one ``insert_many``."""
    session.insert_many([(key, {"k": index, "n": 0})
                         for index, key in enumerate(keys)])


# ----------------------------------------------------------------- op stream
@dataclass(frozen=True)
class Op:
    """One Session call: a read or a write of ``len(keys)`` distinct keys."""

    write: bool
    keys: Tuple[int, ...]
    first_write_number: int  # the write number of keys[0]; keys[i] gets +i


def op_stream(workload: Workload, seed: int, calls: int, key_count: int) -> List[Op]:
    """The first ``calls`` operations of the workload's stream for ``seed``.

    Streams are prefix-stable (asking for more calls extends, never changes,
    the earlier ones) and keyed by ``workload.stream``, so ``sim_point`` and
    ``tcp_point`` run the same operations.  Key choice is uniform.
    """
    rng = random.Random(f"{workload.stream}:{seed}")
    ops: List[Op] = []
    next_write = 1
    write_at = 0
    for index in range(calls):
        if index % workload.write_every == 0:
            write_at = index + rng.randrange(workload.write_every)
        write = index == write_at
        if workload.batch == 1:
            keys: Tuple[int, ...] = (rng.randrange(key_count),)
        else:
            keys = tuple(rng.sample(range(key_count), workload.batch))
        ops.append(Op(write=write, keys=keys, first_write_number=next_write))
        if write:
            next_write += len(keys)
    return ops


# -------------------------------------------------------------------- oracle
class Verifier:
    """Checks every result against an oracle of the writes issued so far.

    * an insert must report at least one replica written;
    * a retrieve flagged current must return the *last* value written to its
      key;
    * a retrieve not flagged current must still return some value that was
      written to that key (stale is allowed under churn, invented is not).

    It also keeps the exact counters the end-to-end metrics are made of and a
    running digest of ``(index, message_count, timestamp, is_current)`` with
    snapshots, so two runs of one stream can be compared over a common prefix.
    """

    #: Digest snapshots are kept at every multiple of this many calls.
    CHECKPOINT = 20

    def __init__(self, key_count: int) -> None:
        self.history: List[List[int]] = [[0] for _ in range(key_count)]
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.key_ops = 0
        self.messages = 0
        self.trace_bytes = 0
        self.retrieved_keys = 0
        self.current_keys = 0
        self.replicas_inspected = 0
        self.replicas_written = 0
        self.replicas_attempted = 0
        self.checkpoints: Dict[int, str] = {}
        self._digest = hashlib.sha1()

    def begin_measurement(self) -> None:
        """Zero the per-phase tallies once the warm-up calls are through.

        The oracle, the digest and the attempted / failed counts carry on: a
        warm-up call that fails still fails the run.
        """
        self.key_ops = self.messages = self.trace_bytes = 0
        self.retrieved_keys = self.current_keys = self.replicas_inspected = 0
        self.replicas_written = self.replicas_attempted = 0

    def fail(self, index: int, reason: str) -> None:
        """Count call ``index`` as failed."""
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"call {index}: {reason}"

    def check(self, index: int, op: Op, result: Any) -> None:
        """Verify one completed call and fold it into the counters."""
        self.attempted += 1
        self.key_ops += len(op.keys)
        trace = result.trace
        self.messages += trace.message_count
        self.trace_bytes += trace.total_bytes
        results = (result,) if len(op.keys) == 1 else tuple(result.results)
        problem = None
        stamps = []
        for offset, (key_index, item) in enumerate(zip(op.keys, results)):
            history = self.history[key_index]
            stamp = item.timestamp.value if item.timestamp is not None else None
            if op.write:
                history.append(op.first_write_number + offset)
                self.replicas_written += item.replicas_written
                self.replicas_attempted += item.replicas_attempted
                if item.replicas_written < 1:
                    problem = "insert wrote no replica"
                stamps.append(f"{stamp}")
                continue
            self.retrieved_keys += 1
            self.replicas_inspected += item.replicas_inspected
            stamps.append(f"{stamp}/{int(item.is_current)}")
            data = item.data
            if not item.found:
                continue  # allowed only when not flagged current (below)
            if not isinstance(data, dict) or data.get("k") != key_index:
                problem = f"retrieve returned foreign data {data!r}"
            elif item.is_current:
                if data.get("n") == history[-1]:
                    self.current_keys += 1
                else:
                    problem = (f"retrieve flagged current returned write "
                               f"{data.get('n')}, oracle has {history[-1]}")
            elif data.get("n") not in history:
                problem = f"retrieve returned a write never issued: {data!r}"
        if len(results) != len(op.keys):
            problem = f"{len(results)} results for {len(op.keys)} keys"
        if problem is not None:
            self.fail(index, problem)
        self._digest.update(
            f"{index}:{trace.message_count}:{','.join(stamps)};".encode("ascii"))
        if (index + 1) % self.CHECKPOINT == 0:
            self.checkpoints[index + 1] = self._digest.hexdigest()


def digests_agree(first: Dict[int, str], second: Dict[int, str]) -> Tuple[int, bool]:
    """``(calls, equal?)`` at the longest checkpoint two runs of one stream share."""
    shared = max(set(first) & set(second))
    return shared, first[shared] == second[shared]


# ------------------------------------------------------------- measured loop
class Churn:
    """One departure + one join, alternating abrupt failures and normal leaves."""

    def __init__(self, network: Any) -> None:
        self.network = network
        self.events = 0

    def step(self) -> None:
        """Remove a random live peer (fail, then leave, then fail ...) and add one."""
        network = self.network
        victim = network.random_alive_peer()
        if self.events % 2 == 0:
            network.fail_peer(victim)
        else:
            network.leave_peer(victim)
        network.join_peer()
        self.events += 1


@dataclass
class Phase:
    """Timings of one measured phase, one entry per segment."""

    factors: List[float] = field(default_factory=list)
    retrieve_ns: List[List[int]] = field(default_factory=list)
    insert_ns: List[List[int]] = field(default_factory=list)
    churn_ns: List[int] = field(default_factory=list)
    key_ops: List[int] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    wall_s: float = 0.0  # the whole phase: calls, churn, checks and readings

    def _segment_raw_ns(self, index: int) -> int:
        return (sum(self.retrieve_ns[index]) + sum(self.insert_ns[index])
                + self.churn_ns[index])

    def busy_norm_s(self, segments: Optional[int] = None) -> float:
        """Norm seconds spent inside calls and churn over the first segments."""
        return sum(self._segment_raw_ns(index) * factor / 1e9
                   for index, factor in enumerate(self.factors[:segments]))

    def busy_raw_ns(self) -> int:
        """Raw nanoseconds spent inside calls and churn, all segments."""
        return sum(self._segment_raw_ns(index)
                   for index in range(len(self.factors)))

    def segment_throughputs(self) -> List[float]:
        """Key operations per norm second of each segment (churn time counts)."""
        return [self.key_ops[index] / (self._segment_raw_ns(index) * factor / 1e9)
                for index, factor in enumerate(self.factors)]

    def segment_medians_ms(self, samples: List[List[int]]) -> List[float]:
        """Per-segment norm p50 in ms (segments without a sample are skipped)."""
        return [statistics.median(segment) * factor / 1e6
                for segment, factor in zip(samples, self.factors) if segment]

    def pooled_norm_ms(self, samples: List[List[int]]) -> List[float]:
        """Every sample in norm ms, for the tail percentiles."""
        return [value * factor / 1e6
                for segment, factor in zip(samples, self.factors)
                for value in segment]


@dataclass
class Execution:
    """One warm-up + measured phase on one backend, and what it left behind."""

    phase: Phase
    verifier: Verifier
    calls: int
    churn_events: int
    request_offset: int               # client requests sent before the phase
    transport: Dict[str, int]         # TransportCounters delta over the phase
    counters_before: Dict[str, Any]   # network / KTS stats after set-up
    report: Dict[str, Any]            # the backend's closing report
    sync_ms: float = 0.0
    sync_transfer_ratio: float = 0.0


def _issue(session: Any, keys: Sequence[str], op: Op) -> Any:
    if len(op.keys) == 1:
        key_index = op.keys[0]
        if op.write:
            return session.insert(keys[key_index],
                                  {"k": key_index, "n": op.first_write_number})
        return session.retrieve(keys[key_index])
    if op.write:
        return session.insert_many(
            [(keys[key_index], {"k": key_index, "n": op.first_write_number + offset})
             for offset, key_index in enumerate(op.keys)])
    return session.retrieve_many([keys[key_index] for key_index in op.keys])


def run_phase(session: Any, keys: Sequence[str], ops: Sequence[Op],
              verifier: Verifier, *, first_index: int, segments: int,
              churn: Optional[Churn] = None, churn_every: int = 0,
              recorder: Optional[Recorder] = None) -> Phase:
    """Run ``ops`` as ``segments`` equal segments, each between two readings.

    A call that raises is counted as failed and the loop goes on.  Churn
    events are timed apart from the calls: they count in throughput, not in
    call latency.  ``first_index`` is the stream position of ``ops[0]`` (the
    verifier digests stream positions); with a ``recorder`` every call's
    spans carry its position *within this phase* as op id.
    """
    now = time.perf_counter_ns
    phase = Phase()
    per_segment = len(ops) // segments
    phase_started = now()
    bracket = Bracket()
    bracket.open()
    for segment in range(segments):
        retrieve_ns: List[int] = []
        insert_ns: List[int] = []
        churn_ns = 0
        key_ops = 0
        for position in range(segment * per_segment, (segment + 1) * per_segment):
            op = ops[position]
            if churn is not None:
                churn.network.now += CHURN_CLOCK_STEP
                if position % churn_every == 0:
                    if recorder is not None:
                        recorder.op = CHURN_OP
                    started = now()
                    churn.step()
                    churn_ns += now() - started
            if recorder is not None:
                recorder.op = position
            started = now()
            try:
                result = _issue(session, keys, op)
            except Exception as error:  # noqa: BLE001 - a failed call is a result
                elapsed = now() - started
                verifier.attempted += 1
                verifier.fail(first_index + position,
                              f"{type(error).__name__}: {error}")
            else:
                elapsed = now() - started
                verifier.check(first_index + position, op, result)
                key_ops += len(op.keys)
            (insert_ns if op.write else retrieve_ns).append(elapsed)
        phase.factors.append(bracket.close())
        phase.retrieve_ns.append(retrieve_ns)
        phase.insert_ns.append(insert_ns)
        phase.churn_ns.append(churn_ns)
        phase.key_ops.append(key_ops)
    phase.rates = list(bracket.rates)
    phase.wall_s = (now() - phase_started) / 1e9
    return phase
