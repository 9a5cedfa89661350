"""UMS — the Update Management Service (Section 3).

UMS provides the two update operations of Figure 2 on top of the DHT's
``put_h``/``get_h`` and the KTS timestamping service:

* :meth:`UpdateManagementService.insert` — generate a timestamp for the key
  and write ``{data, ts}`` to ``rsp(k, h)`` for every replication hash
  function ``h ∈ Hr``.  Receiving peers only keep the replica with the newest
  timestamp, so concurrent inserts converge on the one that obtained the
  latest timestamp.
* :meth:`UpdateManagementService.retrieve` — honour the requested
  :class:`~repro.api.results.Consistency` level.  The default
  (``Consistency.CURRENT``) is the paper's Figure 2 retrieval: ask KTS for
  the last timestamp generated for the key, then probe replicas one by one,
  returning the first replica stamped with it (falling back to the most
  recent replica found, flagged not current).  ``Consistency.ANY`` is a
  first-replica read without the KTS lookup; ``Consistency.BEST_EFFORT``
  bounds the probes and returns the freshest replica seen.

The batched variants (:meth:`~UpdateManagementService.insert_many`,
:meth:`~UpdateManagementService.retrieve_many`) amortise the KTS lookups and
coalesce replica probes that land on the same responsible peer, interleaving
the probe rounds across keys; they are semantically equivalent to per-key
loops but send measurably fewer messages.

Every operation returns the shared result types of :mod:`repro.api.results`,
carrying the full message trace so callers can account for communication cost
and response time uniformly across services.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

# reprolint: allow[REP005] reason=shared result types deliberately live in repro.api so sim and service stacks return identical objects (tests/api/test_shared_results.py)
from repro.api.results import (
    BatchInsertResult,
    BatchRetrieveResult,
    Consistency,
    InsertResult,
    RetrieveResult,
)
from repro.core.detector import CrossCheckDetector
from repro.core.kts import KeyBasedTimestampService
from repro.core.replication import ReplicationScheme
from repro.dht.messages import OperationTrace
from repro.dht.network import DHTNetwork
from repro.dht.storage import StoredValue

__all__ = ["InsertResult", "RetrieveResult", "UpdateManagementService"]

SERVICE_NAME = "ums"


class UpdateManagementService:
    """The paper's UMS, parameterised by a network, a KTS instance and ``Hr``.

    Parameters
    ----------
    network / kts / replication:
        The substrate services.  ``kts.replication`` and ``replication``
        normally coincide; they are passed separately so tests can explore
        mismatched configurations.
    probe_order:
        ``"random"`` (default) shuffles the replica probe order on every
        retrieve, matching the independence assumption of the cost analysis;
        ``"fixed"`` probes in the canonical ``Hr`` order (ablation study).
    detector:
        Optional :class:`~repro.core.detector.CrossCheckDetector`.  When
        attached, every :meth:`retrieve` (except under ``Consistency.ANY``,
        which makes no currency claim) cross-checks the ``last_ts`` reply
        against the replica timestamps it probed anyway; a claim provably
        *behind* an observed replica is flagged.  The detector is passive:
        no extra messages, no RNG draws, no change to any result.
    """

    def __init__(self, network: DHTNetwork, kts: KeyBasedTimestampService,
                 replication: ReplicationScheme, *, probe_order: str = "random",
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 detector: Optional["CrossCheckDetector"] = None) -> None:
        if probe_order not in ("random", "fixed"):
            raise ValueError(f"probe_order must be 'random' or 'fixed', got {probe_order!r}")
        self.network = network
        self.kts = kts
        self.replication = replication
        self.probe_order = probe_order
        self.rng = rng if rng is not None else random.Random(seed)
        self.detector = detector

    # ------------------------------------------------------------------ insert
    def insert(self, key: Any, data: Any, *, origin: Optional[int] = None,
               unreachable: FrozenSet[int] = frozenset()) -> InsertResult:
        """Insert (or update) ``key`` with ``data`` in the replicated DHT.

        ``unreachable`` injects the paper's motivating failure: replica holders
        in that set do not receive the update, leaving stale replicas behind.
        """
        trace = self.network.new_trace()
        timestamp = self.kts.gen_ts(key, origin=origin, trace=trace)
        written = 0
        for hash_fn in self.replication:
            stored = self.network.put(key, hash_fn, data, timestamp=timestamp,
                                      origin=origin, trace=trace,
                                      unreachable=unreachable)
            if stored:
                written += 1
        return InsertResult(key=key, timestamp=timestamp, replicas_written=written,
                            replicas_attempted=self.replication.factor, trace=trace,
                            service=SERVICE_NAME)

    def insert_many(self, items: Sequence[Tuple[Any, Any]], *,
                    origin: Optional[int] = None,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Insert several ``(key, data)`` pairs in one batched operation.

        The timestamps are generated with one routed TSR exchange per distinct
        responsible of timestamping (:meth:`KeyBasedTimestampService.gen_ts_many`)
        and the replica writes are coalesced per destination peer
        (:meth:`DHTNetwork.put_many`).
        """
        trace = self.network.new_trace()
        keys = [key for key, _data in items]
        # One timestamp per *occurrence* (a duplicated key gets two increasing
        # timestamps, exactly like a sequential loop would).
        timestamps = self.kts.gen_ts_many(keys, origin=origin, trace=trace)
        requests = self.replication.replicated_requests(
            items, [(timestamp, None) for timestamp in timestamps])
        accepted = self.network.put_many(requests, origin=origin, trace=trace,
                                         unreachable=unreachable)
        written = self.replication.fold_batch_acceptance(accepted, len(items))
        results = tuple(
            InsertResult(key=key, timestamp=timestamps[index],
                         replicas_written=written[index],
                         replicas_attempted=self.replication.factor, trace=trace,
                         service=SERVICE_NAME)
            for index, (key, _data) in enumerate(items))
        return BatchInsertResult(results=results, trace=trace)

    # ---------------------------------------------------------------- retrieve
    def retrieve(self, key: Any, *, origin: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset(),
                 consistency: str = Consistency.CURRENT,
                 max_probes: Optional[int] = None) -> RetrieveResult:
        """Return a replica of ``key`` honouring the consistency level.

        Under ``Consistency.CURRENT`` (Figure 2) the operation stops at the
        first replica stamped with the last timestamp generated for the key;
        otherwise it returns the most recent replica it saw, flagged
        ``is_current=False``.  ``Consistency.ANY`` skips the KTS lookup and
        returns the first replica found; ``Consistency.BEST_EFFORT`` probes at
        most ``max_probes`` replicas (default 3) and returns the freshest.
        """
        Consistency.validate(consistency)
        trace = self.network.new_trace()
        latest = None
        if consistency != Consistency.ANY:
            latest = self.kts.last_ts(key, origin=origin, trace=trace)
        probe_limit = self._probe_limit(consistency, max_probes)
        most_recent: Optional[StoredValue] = None
        inspected = 0
        observed: List[int] = []
        for hash_fn in self._probe_sequence()[:probe_limit]:
            entry = self.network.get(key, hash_fn, origin=origin, trace=trace,
                                     unreachable=unreachable)
            inspected += 1
            if entry is None or entry.timestamp is None:
                continue
            observed.append(entry.timestamp.value)
            if consistency == Consistency.ANY:
                return self._result(key, entry, latest, inspected, trace,
                                    consistency, is_current=False)
            if latest is not None and entry.timestamp.value == latest.value:
                self._cross_check(key, latest, observed)
                return self._result(key, entry, latest, inspected, trace,
                                    consistency, is_current=True)
            if most_recent is None or entry.timestamp > most_recent.timestamp:
                most_recent = entry
        if consistency != Consistency.ANY:
            self._cross_check(key, latest, observed)
        if most_recent is not None:
            return self._result(key, most_recent, latest, inspected, trace,
                                consistency, is_current=False)
        return RetrieveResult(key=key, data=None, timestamp=None, is_current=False,
                              found=False, replicas_inspected=inspected,
                              latest_timestamp=latest, trace=trace,
                              consistency=consistency, service=SERVICE_NAME)

    def retrieve_many(self, keys: Sequence[Any], *, origin: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset(),
                      consistency: str = Consistency.CURRENT,
                      max_probes: Optional[int] = None) -> BatchRetrieveResult:
        """Retrieve several keys in one batched operation.

        The ``last_ts`` lookups are amortised across keys
        (:meth:`KeyBasedTimestampService.last_ts_many`) and the replica probes
        are interleaved: round ``r`` probes the ``r``-th replica of every
        still-unresolved key in a single :meth:`DHTNetwork.get_many` sweep, so
        probes landing on the same responsible share one routed exchange.
        Per-key outcomes are identical to :meth:`retrieve`; only the message
        accounting is amortised (all results share the batch trace).
        """
        Consistency.validate(consistency)
        trace = self.network.new_trace()
        latest: Dict[Any, Any] = {}
        if consistency != Consistency.ANY:
            latest = self.kts.last_ts_many(list(keys), origin=origin, trace=trace)
        probe_limit = self._probe_limit(consistency, max_probes)
        # Distinct keys only: a duplicated key is probed once and its result
        # fanned out to every position, like repeated reads in a loop.
        distinct_keys = list(dict.fromkeys(keys))
        orders = {key: self._probe_sequence() for key in distinct_keys}
        resolved: Dict[Any, RetrieveResult] = {}
        most_recent: Dict[Any, StoredValue] = {}
        inspected: Dict[Any, int] = {key: 0 for key in distinct_keys}
        for round_index in range(probe_limit):
            pending = [key for key in distinct_keys if key not in resolved]
            if not pending:
                break
            requests = [(key, orders[key][round_index]) for key in pending]
            entries = self.network.get_many(requests, origin=origin, trace=trace,
                                            unreachable=unreachable)
            for (key, _hash_fn), entry in zip(requests, entries):
                inspected[key] += 1
                if entry is None or entry.timestamp is None:
                    continue
                key_latest = latest.get(key)
                if consistency == Consistency.ANY:
                    resolved[key] = self._result(key, entry, key_latest,
                                                 inspected[key], trace,
                                                 consistency, is_current=False)
                elif key_latest is not None and entry.timestamp.value == key_latest.value:
                    resolved[key] = self._result(key, entry, key_latest,
                                                 inspected[key], trace,
                                                 consistency, is_current=True)
                elif (key not in most_recent
                      or entry.timestamp > most_recent[key].timestamp):
                    most_recent[key] = entry
        results = []
        for key in keys:
            result = resolved.get(key)
            if result is None:
                entry = most_recent.get(key)
                if entry is not None:
                    result = self._result(key, entry, latest.get(key),
                                          inspected[key], trace, consistency,
                                          is_current=False)
                else:
                    result = RetrieveResult(
                        key=key, data=None, timestamp=None, is_current=False,
                        found=False, replicas_inspected=inspected[key],
                        latest_timestamp=latest.get(key), trace=trace,
                        consistency=consistency, service=SERVICE_NAME)
            results.append(result)
        return BatchRetrieveResult(results=tuple(results), trace=trace,
                                   consistency=consistency)

    def _cross_check(self, key: Any, latest, observed: List[int]) -> None:
        """Hand one retrieval's evidence to the attached detector, if any.

        ``retrieve_many`` deliberately skips detection: its interleaved probe
        rounds stop probing a key once it resolves, so the per-key evidence
        is weaker than the sequential path's and the two would disagree.
        """
        if self.detector is None or not observed:
            return
        claimed = latest.value if latest is not None else None
        self.detector.observe(key, claimed, observed)

    def _result(self, key: Any, entry: StoredValue, latest, inspected: int,
                trace: OperationTrace, consistency: str, *,
                is_current: bool) -> RetrieveResult:
        return RetrieveResult(key=key, data=entry.data, timestamp=entry.timestamp,
                              is_current=is_current, found=True,
                              replicas_inspected=inspected,
                              latest_timestamp=latest, trace=trace,
                              consistency=consistency, service=SERVICE_NAME)

    def _probe_limit(self, consistency: str, max_probes: Optional[int]) -> int:
        return Consistency.probe_limit(consistency, max_probes,
                                       self.replication.factor)

    def _probe_sequence(self) -> List:
        if self.probe_order == "random":
            return self.replication.shuffled(self.rng)
        return list(self.replication)

    # ------------------------------------------------------------- diagnostics
    def currency_probability(self, key: Any) -> float:
        """Empirical probability of currency and availability ``pt`` for ``key``.

        The fraction of replication hash functions whose *current* responsible
        holds the latest *certified* timestamp (``kts.peek_last_ts``, read in
        place; the newest one stored when ``rsp(k, h_ts)`` holds no counter):
        the quantity the cost analysis of Section 3.3 is expressed in.
        """
        replicas = self.network.stored_replicas(key, self.replication)
        stamps = [entry.timestamp.value for entry in replicas if entry.timestamp is not None]
        certified = self.kts.peek_last_ts(key)
        if certified is None:
            certified = max(stamps, default=None)
        return stamps.count(certified) / self.replication.factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"UpdateManagementService(replicas={self.replication.factor}, "
                f"probe_order={self.probe_order!r})")
