"""BRK — the BRICKS baseline the paper compares against (Section 5.1, 6).

BRICKS (Knezevic et al., GLOBE 2005) replicates a data item under multiple
correlated keys and attaches a *version number* to every replica, incremented
on each update.  To return a current replica it must

* retrieve **all** replicas (it cannot tell whether a single replica is
  current without comparing), and
* pick the highest version — which is ambiguous when concurrent updates
  produced two different values with the same version number.

We model the correlated keys with the same pairwise-independent hash functions
used for UMS so the two services place replicas identically; what differs is
the update metadata (versions vs. KTS timestamps) and the retrieval strategy.

The service returns the **shared** result types of :mod:`repro.api.results`
(``version`` and ``ambiguous`` set, ``is_current`` always ``False`` — BRICKS
cannot certify currency, which is the paper's key criticism).

Consistency levels map onto BRICKS as follows: ``Consistency.CURRENT`` is its
best attempt (retrieve every replica, return the highest version),
``Consistency.ANY`` returns the first replica found, ``Consistency.BEST_EFFORT``
bounds the probes and returns the highest version among them.
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
from repro.core.replication import ReplicationScheme
from repro.dht.messages import TraceSummary
from repro.dht.network import DHTNetwork
from repro.dht.storage import StoredValue

__all__ = ["BricksService"]

SERVICE_NAME = "brk"


class BricksService:
    """Versioning-based replica management (the paper's baseline algorithm)."""

    def __init__(self, network: DHTNetwork, replication: ReplicationScheme, *,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.network = network
        self.replication = replication
        self.rng = rng if rng is not None else random.Random(seed)

    # ------------------------------------------------------------------ insert
    def insert(self, key: Any, data: Any, *, origin: Optional[int] = None,
               unreachable: FrozenSet[int] = frozenset(),
               observed_version: Optional[int] = None) -> InsertResult:
        """Update ``key``: read the replicas' versions, then write version+1 everywhere.

        Two concurrent inserts that read the same version will both write the
        same new version number — BRICKS has no mechanism to order them, which
        is exactly the ambiguity the paper points out.  ``observed_version``
        emulates such a concurrent updater: it skips the read phase and bases
        the new version on the state the updater had previously observed.
        """
        trace = self.network.new_trace()
        if observed_version is not None:
            current_version = observed_version
        else:
            current_version = 0
            for hash_fn in self.replication:
                entry = self.network.get(key, hash_fn, origin=origin, trace=trace,
                                         unreachable=unreachable)
                if entry is not None and entry.version is not None:
                    current_version = max(current_version, entry.version)
        new_version = current_version + 1
        written = 0
        for hash_fn in self.replication:
            stored = self.network.put(key, hash_fn, data, version=new_version,
                                      origin=origin, trace=trace,
                                      unreachable=unreachable)
            if stored:
                written += 1
        return InsertResult(key=key, version=new_version, replicas_written=written,
                            replicas_attempted=self.replication.factor, trace=trace,
                            service=SERVICE_NAME)

    def insert_many(self, items: Sequence[Tuple[Any, Any]], *,
                    origin: Optional[int] = None,
                    unreachable: FrozenSet[int] = frozenset()) -> BatchInsertResult:
        """Insert several ``(key, data)`` pairs, batching both phases.

        The read phase fetches every replica of every key with coalesced
        :meth:`DHTNetwork.get_many` sweeps, and the write phase coalesces the
        version+1 writes per destination peer.
        """
        trace = self.network.new_trace()
        distinct_keys = list(dict.fromkeys(key for key, _data in items))
        read_requests = [(key, hash_fn) for key in distinct_keys
                         for hash_fn in self.replication]
        entries = self.network.get_many(read_requests, origin=origin, trace=trace,
                                        unreachable=unreachable)
        base_version: Dict[Any, int] = {key: 0 for key in distinct_keys}
        for (key, _hash_fn), entry in zip(read_requests, entries):
            if entry is not None and entry.version is not None:
                base_version[key] = max(base_version[key], entry.version)
        # One version per *occurrence*: a duplicated key writes consecutive
        # versions, exactly like a sequential loop would (each loop iteration
        # observes the version the previous one wrote).
        occurrence: Dict[Any, int] = {}
        versions: List[int] = []
        for key, _data in items:
            occurrence[key] = occurrence.get(key, 0) + 1
            versions.append(base_version[key] + occurrence[key])
        write_requests = self.replication.replicated_requests(
            items, [(None, version) for version in versions])
        accepted = self.network.put_many(write_requests, origin=origin,
                                         trace=trace, unreachable=unreachable)
        written = self.replication.fold_batch_acceptance(accepted, len(items))
        results = tuple(
            InsertResult(key=key, version=versions[index],
                         replicas_written=written[index],
                         replicas_attempted=self.replication.factor,
                         trace=trace, service=SERVICE_NAME)
            for index, (key, _data) in enumerate(items))
        return BatchInsertResult(results=results, trace=trace)

    # ---------------------------------------------------------------- retrieve
    def retrieve(self, key: Any, *, origin: Optional[int] = None,
                 unreachable: FrozenSet[int] = frozenset(),
                 consistency: str = Consistency.CURRENT,
                 max_probes: Optional[int] = None) -> RetrieveResult:
        """Return the highest-version replica BRICKS can assemble.

        Under the default level BRICKS must retrieve *all* replicas (it cannot
        tell whether a single one is current); ``Consistency.ANY`` stops at
        the first replica found and ``Consistency.BEST_EFFORT`` inspects at
        most ``max_probes`` replicas (default 3).  ``is_current`` is always
        ``False``: version numbers cannot certify currency.
        """
        Consistency.validate(consistency)
        trace = self.network.new_trace()
        replicas: List[StoredValue] = []
        inspected = 0
        for hash_fn in list(self.replication)[:self._probe_limit(consistency,
                                                                 max_probes)]:
            entry = self.network.get(key, hash_fn, origin=origin, trace=trace,
                                     unreachable=unreachable)
            inspected += 1
            if entry is not None and entry.version is not None:
                replicas.append(entry)
                if consistency == Consistency.ANY:
                    break
        return self._pick(key, replicas, inspected, trace, consistency)

    def retrieve_many(self, keys: Sequence[Any], *, origin: Optional[int] = None,
                      unreachable: FrozenSet[int] = frozenset(),
                      consistency: str = Consistency.CURRENT,
                      max_probes: Optional[int] = None) -> BatchRetrieveResult:
        """Retrieve several keys at once, coalescing probes per destination peer.

        Under the default (retrieve-all) level every ``(key, replica)`` pair is
        fetched in one :meth:`DHTNetwork.get_many` sweep; under ``ANY``/
        ``BEST_EFFORT`` the probe rounds are interleaved across keys like UMS.
        """
        Consistency.validate(consistency)
        trace = self.network.new_trace()
        probe_limit = self._probe_limit(consistency, max_probes)
        # Distinct keys only: a duplicated key is probed once and its result
        # fanned out to every position, like repeated reads in a loop.
        distinct_keys = list(dict.fromkeys(keys))
        collected: Dict[Any, List[StoredValue]] = {key: [] for key in distinct_keys}
        inspected: Dict[Any, int] = {key: 0 for key in distinct_keys}
        done: Dict[Any, bool] = {key: False for key in distinct_keys}
        hashes = list(self.replication)
        for round_index in range(probe_limit):
            pending = [key for key in distinct_keys if not done[key]]
            if not pending:
                break
            requests = [(key, hashes[round_index]) for key in pending]
            entries = self.network.get_many(requests, origin=origin, trace=trace,
                                            unreachable=unreachable)
            for (key, _hash_fn), entry in zip(requests, entries):
                inspected[key] += 1
                if entry is not None and entry.version is not None:
                    collected[key].append(entry)
                    if consistency == Consistency.ANY:
                        done[key] = True
        results = tuple(self._pick(key, collected[key], inspected[key], trace,
                                   consistency)
                        for key in keys)
        return BatchRetrieveResult(results=results, trace=trace,
                                   consistency=consistency)

    def _pick(self, key: Any, replicas: List[StoredValue], inspected: int,
              trace: TraceSummary, consistency: str) -> RetrieveResult:
        if not replicas:
            return RetrieveResult(key=key, data=None, version=None, found=False,
                                  ambiguous=False, is_current=False,
                                  replicas_inspected=inspected, trace=trace,
                                  consistency=consistency, service=SERVICE_NAME)
        highest = max(entry.version for entry in replicas)
        winners = [entry for entry in replicas if entry.version == highest]
        distinct_payloads = {repr(entry.data) for entry in winners}
        chosen = winners[0]
        return RetrieveResult(key=key, data=chosen.data, version=highest,
                              found=True, ambiguous=len(distinct_payloads) > 1,
                              is_current=False, replicas_inspected=inspected,
                              trace=trace, consistency=consistency,
                              service=SERVICE_NAME)

    def _probe_limit(self, consistency: str, max_probes: Optional[int]) -> int:
        return Consistency.probe_limit(consistency, max_probes,
                                       self.replication.factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BricksService(replicas={self.replication.factor})"
