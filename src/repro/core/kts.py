"""KTS — the Key-based Timestamping Service (Section 4).

KTS generates monotonically increasing timestamps per key, in a completely
distributed fashion: the peer responsible for timestamping key ``k`` is
``rsp(k, h_ts)`` for a dedicated hash function ``h_ts``, and it serves
timestamp requests from a local counter kept in its Valid Counter Set.

The service implements the full design of the paper:

* ``gen_ts(k)`` / ``last_ts(k)`` (Sections 3.1 and 4.1) routed through the
  DHT's lookup service, with message accounting;
* counter initialisation by the **direct** algorithm (counters are transferred
  to the next responsible when a peer leaves normally or is displaced by a
  join — O(1) messages, Section 4.2.1) and by the **indirect** algorithm
  (the new responsible reconstructs the counter from the timestamps stored
  with the replicas — ``O(|Hr|·c_ret)`` messages, Section 4.2.2);
* the VCS rules for joins, leaves and failures, including the RLU variant in
  which a responsible forgets its counter after every generation (Section 4.3);
* the **recovery** and **periodic inspection** strategies that repair counters
  the indirect algorithm may have initialised too low (Section 4.2.2).

The service observes the network's membership events, so simply constructing
it and running churn on the network keeps the counters placed correctly.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.counters import KeyCounter, ValidCounterSet
from repro.core.replication import ReplicationScheme
from repro.core.timestamps import Timestamp
from repro.dht.hashing import HashFamily, PairwiseIndependentHash
from repro.dht.messages import MessageKind, TraceSummary
from repro.dht.network import DHTNetwork, NetworkObserver

__all__ = ["CounterInitialization", "KeyBasedTimestampService", "KtsStats"]

#: The ``(request, reply)`` message kinds of the two timestamp exchanges.
_TSR = (MessageKind.TSR, MessageKind.TSR_REPLY)
_LAST_TS = (MessageKind.LAST_TS_REQUEST, MessageKind.LAST_TS_REPLY)


class CounterInitialization:
    """How counters travel across responsibility changes."""

    #: transfer counters to the next responsible on normal leaves and joins
    DIRECT = "direct"
    #: never transfer; the new responsible reconstructs counters from replicas
    INDIRECT = "indirect"


@dataclass
class KtsStats:
    """Operation counters kept by the service (used by tests and experiments)."""

    timestamps_generated: int = 0
    last_ts_requests: int = 0
    direct_transfers: int = 0
    indirect_initializations: int = 0
    fresh_counters: int = 0
    corrections: int = 0
    maintenance_messages: int = 0


class KeyBasedTimestampService(NetworkObserver):
    """Distributed per-key timestamp generation over a :class:`DHTNetwork`.

    Parameters
    ----------
    network:
        The DHT network hosting the peers.
    replication:
        The replication scheme ``Hr``; needed by the indirect initialisation
        algorithm, which reads the timestamps stored with the replicas.
    ts_hash:
        The hash function ``h_ts`` designating responsibles of timestamping.
        When omitted, one is sampled from a dedicated family seeded by ``seed``.
    initialization:
        :data:`CounterInitialization.DIRECT` (default) or ``INDIRECT``.
        Direct matches the paper's UMS-Direct configuration; even then, a
        counter lost to a *failure* is re-created with the indirect algorithm.
    dht_is_rla:
        Whether the underlying DHT is Responsibility Loss Aware (Section 4.3).
        When ``False`` the service applies the paper's RLU counter-measure:
        a responsible drops its counter after every generation.
    indirect_safety_margin:
        The paper initialises an indirect counter to ``ts_m + 1`` to leave room
        for a timestamp that was generated but not yet committed; this is that
        margin (set to 0 to initialise exactly at the highest observed value).
    """

    def __init__(self, network: DHTNetwork, replication: ReplicationScheme, *,
                 ts_hash: Optional[PairwiseIndependentHash] = None,
                 initialization: str = CounterInitialization.DIRECT,
                 dht_is_rla: bool = True,
                 indirect_safety_margin: int = 1,
                 seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        if initialization not in (CounterInitialization.DIRECT, CounterInitialization.INDIRECT):
            raise ValueError(f"unknown initialization mode {initialization!r}")
        if indirect_safety_margin < 0:
            raise ValueError("indirect_safety_margin must be >= 0")
        self.network = network
        self.replication = replication
        self.initialization = initialization
        self.dht_is_rla = dht_is_rla
        self.indirect_safety_margin = indirect_safety_margin
        self.rng = rng if rng is not None else random.Random(seed)
        if ts_hash is None:
            family = HashFamily(bits=network.bits, seed=self.rng.getrandbits(64))
            ts_hash = family.sample("h-ts")
        self.ts_hash = ts_hash
        self.stats = KtsStats()
        # Each peer's Valid Counter Set, created empty on first use (Rule 1).
        self._states: Dict[int, ValidCounterSet] = defaultdict(ValidCounterSet)
        #: The ``last_ts`` reply filter, ``None`` while every responsible is
        #: honest; assign one to install it and ``None`` to remove it.  It is
        #: called as ``interceptor(responsible, key, value)`` after the true
        #: last-generated value is computed, and its return value is what the
        #: caller sees — a *value-only* seam used by the byzantine fault
        #: profiles of :mod:`repro.simulation.adversary` to model responsibles
        #: that lie about a key's currency.  Interception never changes
        #: routing, message accounting or any RNG stream (the honest counters
        #: are untouched), so runs with an inert interceptor stay bit-identical
        #: to uninstrumented ones.  ``gen_ts`` is deliberately not
        #: interceptable: the modelled attack targets the retrieval-side
        #: currency check, not timestamp generation.
        self.reply_interceptor: Optional[Callable[[int, Any, Optional[int]], Optional[int]]] = None
        network.add_observer(self)

    # ------------------------------------------------------------------ lookup
    def responsible_of_timestamping(self, key: Any) -> int:
        """``rsp(k, h_ts)``: the current responsible of timestamping for ``key``."""
        return self.network.responsible_peer(key, self.ts_hash)

    def peer_state(self, peer_id: int) -> ValidCounterSet:
        """The Valid Counter Set of a peer, created lazily (Rule 1: empty)."""
        return self._states[peer_id]

    # reprolint: allow[REP008] reason=read view: tests/core/test_kts.py observes counter transfer through it
    def counters_at(self, peer_id: int) -> List[KeyCounter]:
        """Snapshot of the counters currently valid at ``peer_id``."""
        return self.peer_state(peer_id).counters()

    def peek_last_ts(self, key: Any) -> Optional[int]:
        """``last_generated()`` of ``key``'s counter at ``rsp(k, h_ts)``, if it holds one.

        The honest ``last_ts``, read in place: no KTS state, message or random draw.
        """
        vcs = self._states.get(self.responsible_of_timestamping(key))
        counter = None if vcs is None else vcs.get(key)
        return None if counter is None else counter.last_generated()

    # ------------------------------------------------------------- main ops
    def gen_ts(self, key: Any, *, origin: Optional[int] = None,
               trace: Optional[TraceSummary] = None) -> Timestamp:
        """Generate a new timestamp for ``key`` (Figure 4).

        Routes a timestamp request to ``rsp(k, h_ts)``; the responsible
        initialises its counter if needed (Rule 2) and returns the incremented
        value.  It locates the responsible through :meth:`DHTNetwork.locate`.
        """
        responsible = self.network.locate(key, self.ts_hash, _TSR, origin=origin, trace=trace)
        return self._generate(responsible, key, trace)

    def last_ts(self, key: Any, *, origin: Optional[int] = None,
                trace: Optional[TraceSummary] = None) -> Optional[Timestamp]:
        """The last timestamp generated for ``key``, or ``None`` if none is known."""
        responsible = self.network.locate(key, self.ts_hash, _LAST_TS, origin=origin, trace=trace)
        return self._read(responsible, key, trace)

    # ------------------------------------------------------------- batched ops
    def gen_ts_many(self, keys: List[Any], *, origin: Optional[int] = None,
                    trace: Optional[TraceSummary] = None) -> List[Timestamp]:
        """Generate one timestamp per *occurrence* in ``keys``, amortising routing.

        Keys whose responsible of timestamping coincide share a single routed
        request/reply exchange (one TSR carrying every key), instead of one
        lookup + TSR per key.  Semantically identical to calling
        :meth:`gen_ts` once per list element — a key appearing twice receives
        two distinct, increasing timestamps — only the message accounting is
        amortised.  Returns the timestamps aligned with the input order.
        """
        out: List[Optional[Timestamp]] = [None] * len(keys)
        for responsible, indices in self._located_groups(keys, _TSR, origin, trace):
            for index in indices:
                out[index] = self._generate(responsible, keys[index], trace)
        return out

    def last_ts_many(self, keys: List[Any], *, origin: Optional[int] = None,
                     trace: Optional[TraceSummary] = None
                     ) -> Dict[Any, Optional[Timestamp]]:
        """Batched :meth:`last_ts`: one routed exchange per distinct responsible.

        This is the KTS half of the ``retrieve_many`` amortisation: a batch of
        N keys usually maps to far fewer than N responsibles of timestamping,
        so the ``last_ts`` lookups collapse accordingly.
        """
        out: Dict[Any, Optional[Timestamp]] = {}
        for responsible, indices in self._located_groups(keys, _LAST_TS, origin, trace):
            for index in indices:
                key = keys[index]
                if key not in out:
                    out[key] = self._read(responsible, key, trace)
        return out

    def _located_groups(self, keys: List[Any], kinds: Tuple[MessageKind, MessageKind],
                        origin: Optional[int], trace: Optional[TraceSummary]
                        ) -> Iterator[Tuple[int, List[int]]]:
        """Input indices by the key's responsible of timestamping, each group located once."""
        grouped: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            grouped.setdefault(self.responsible_of_timestamping(key), []).append(index)
        for responsible, indices in grouped.items():
            self.network.locate(keys[indices[0]], self.ts_hash, kinds, origin=origin, trace=trace)
            yield responsible, indices

    # --------------------------------------------------------- counter handling
    def _generate(self, responsible: int, key: Any,
                  trace: Optional[TraceSummary]) -> Timestamp:
        """``responsible``'s next timestamp for ``key`` (the reply to one TSR)."""
        value = self._counter_for(responsible, key, trace).generate()
        self.stats.timestamps_generated += 1
        if not self.dht_is_rla:
            # RLU counter-measure: assume responsibility may have been lost,
            # so the counter must be re-initialised before the next generation.
            self._states[responsible].remove(key)
        return Timestamp(key=key, value=value)

    def _read(self, responsible: int, key: Any,
              trace: Optional[TraceSummary]) -> Optional[Timestamp]:
        """``responsible``'s reply to one ``last_ts`` request for ``key``."""
        value = self._counter_for(responsible, key, trace).last_generated()
        self.stats.last_ts_requests += 1
        if self.reply_interceptor is not None:
            value = self.reply_interceptor(responsible, key, value)
        return None if value is None else Timestamp(key=key, value=value)

    def _counter_for(self, responsible: int, key: Any,
                     trace: Optional[TraceSummary]) -> KeyCounter:
        vcs = self._states[responsible]
        counter = vcs.get(key)
        if counter is not None:
            return counter
        counter = self._initialize_counter(responsible, key, trace)
        vcs.add(counter)
        return counter

    def _initialize_counter(self, responsible: int, key: Any,
                            trace: Optional[TraceSummary]) -> KeyCounter:
        """Create the counter for ``key`` at ``responsible``.

        When the key has replicas in the DHT, this is the paper's indirect
        algorithm (Figure 5): read every replica, keep the most recent
        timestamp ``ts_m`` and start the counter at ``ts_m + margin``.  When
        nothing is stored yet, the counter simply starts at zero.
        """
        observed = self._max_stored_timestamp(responsible, key, trace)
        if observed is None:
            self.stats.fresh_counters += 1
            return KeyCounter(key=key, value=0, exact=True, last_known=None)
        self.stats.indirect_initializations += 1
        return KeyCounter(key=key, value=observed + self.indirect_safety_margin,
                          exact=False, last_known=observed)

    def _max_stored_timestamp(self, responsible: int, key: Any,
                              trace: Optional[TraceSummary]) -> Optional[int]:
        """Highest timestamp stored with ``key``'s replicas (``ts_m``), if any."""
        best: Optional[int] = None
        for hash_fn in self.replication:
            entry = self.network.get(key, hash_fn, origin=responsible, trace=trace)
            if entry is None or entry.timestamp is None:
                continue
            value = entry.timestamp.value
            if best is None or value > best:
                best = value
        return best

    # ----------------------------------------------------- membership observer
    def peer_joined(self, network: DHTNetwork, peer_id: int,
                    affected: set) -> None:
        """A join displaced part of the key space (Rule 3 + direct transfer)."""
        self._states[peer_id].clear()  # Rule 1
        for previous_owner in affected:
            self._transfer_displaced_counters(previous_owner, peer_id)

    def peer_left(self, network: DHTNetwork, peer_id: int) -> None:
        """A normal leave: direct transfer of the leaver's counters (Section 4.2.1)."""
        vcs = self._states.pop(peer_id, None)
        if vcs is None or not self.network.size:
            return
        transferred = 0
        for counter in vcs.counters():
            new_responsible = self.responsible_of_timestamping(counter.key)
            if self.initialization == CounterInitialization.DIRECT:
                self._states[new_responsible].add(counter.copy_for_transfer())
                transferred += 1
        if transferred:
            self.stats.direct_transfers += transferred
            self.stats.maintenance_messages += 1  # one batched transfer message

    def peer_failed(self, network: DHTNetwork, peer_id: int) -> None:
        """A failure: the peer's counters are lost (indirect init will rebuild them)."""
        self._states.pop(peer_id, None)

    def _transfer_displaced_counters(self, previous_owner: int, new_owner: int) -> None:
        previous = self._states.get(previous_owner)
        if previous is None:
            return
        transferred = 0
        for counter in previous.counters():
            if self.responsible_of_timestamping(counter.key) != new_owner:
                continue
            # Rule 3: the previous owner lost responsibility for this key.
            previous.remove(counter.key)
            if self.initialization == CounterInitialization.DIRECT:
                self._states[new_owner].add(counter.copy_for_transfer())
                transferred += 1
        if transferred:
            self.stats.direct_transfers += transferred
            self.stats.maintenance_messages += 1

    # -------------------------------------------------- repair strategies (4.2.2)
    def recover(self, key: Any, reported_value: int, *,
                trace: Optional[TraceSummary] = None) -> bool:
        """Recovery strategy: a restarted responsible reports its old counter.

        The *current* responsible of timestamping compares the reported value
        with its own counter and corrects it if the reported one is higher.
        Returns ``True`` when a correction was applied.
        """
        responsible = self.responsible_of_timestamping(key)
        counter = self._counter_for(responsible, key, trace)
        corrected = counter.correct_to(reported_value)
        if corrected:
            self.stats.corrections += 1
        return corrected

    def inspect_counters(self, peer_id: Optional[int] = None, *,
                         trace: Optional[TraceSummary] = None) -> int:
        """Periodic inspection: compare local counters with stored timestamps.

        For every counter in the VCS of ``peer_id`` (or of every peer when
        omitted), read the replicas of the key and raise the counter if a
        higher timestamp is found in the DHT.  Returns the number of
        corrections applied.
        """
        peer_ids = [peer_id] if peer_id is not None else list(self._states.keys())
        corrections = 0
        for current_peer in peer_ids:
            vcs = self._states.get(current_peer)
            if vcs is None or not self.network.is_alive(current_peer):
                continue
            for counter in vcs.counters():
                observed = self._max_stored_timestamp(current_peer, counter.key, trace)
                if observed is not None and counter.correct_to(observed):
                    corrections += 1
        if corrections:
            self.stats.corrections += corrections
        return corrections

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KeyBasedTimestampService(initialization={self.initialization!r}, "
                f"generated={self.stats.timestamps_generated})")
