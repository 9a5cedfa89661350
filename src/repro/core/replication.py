"""Replication scheme: the set ``Hr`` of replication hash functions (Section 3.1).

UMS replicates every pair ``(k, data)`` at ``rsp(k, h)`` for each ``h`` in a
set ``Hr`` of pairwise-independent hash functions.  The size of ``Hr`` is the
replication factor: the paper uses 10 by default and sweeps 5–40 in Figures 9
and 10.

Beyond placement, the scheme owns the *replica-sync* exchange
(:meth:`ReplicationScheme.sync_replicas`): one anti-entropy round that brings
every replica holder of a key up to the newest copy, shipping only the keys
whose KTS timestamp (or BRK version) advanced past the holder's summary —
the delta-replication primitive of the wire-efficiency layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.errors import ReplicationConfigurationError
from repro.dht.hashing import PairwiseIndependentHash
from repro.dht.messages import MessageKind, TraceSummary
from repro.dht.network import SYNC_SUMMARY_ENTRY_BYTES, DHTNetwork
from repro.dht.storage import advanced_past, reconciliation_token

__all__ = ["ReplicaSyncReport", "ReplicationScheme"]


@dataclass(frozen=True)
class ReplicaSyncReport:
    """Outcome of one :meth:`ReplicationScheme.sync_replicas` round.

    Byte figures use the network's modeled message sizes; ``full_bytes`` is
    the cost of the naive alternative (re-pushing every key to every replica
    holder), so :attr:`transfer_ratio` is the round's measured saving.
    """

    keys: int
    replica_slots: int
    entries_shipped: int
    entries_applied: int
    entries_skipped: int
    summary_bytes: int
    delta_bytes: int
    full_bytes: int
    messages: int

    @property
    def transfer_bytes(self) -> int:
        """Bytes the delta round put on the wire (summaries + deltas)."""
        return self.summary_bytes + self.delta_bytes

    @property
    def transfer_ratio(self) -> float:
        """Delta-round bytes as a fraction of the full-state push."""
        if self.full_bytes <= 0:
            return 0.0
        return self.transfer_bytes / self.full_bytes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (served by the ``sync`` wire operation)."""
        return {"keys": self.keys, "replica_slots": self.replica_slots,
                "entries_shipped": self.entries_shipped,
                "entries_applied": self.entries_applied,
                "entries_skipped": self.entries_skipped,
                "summary_bytes": self.summary_bytes,
                "delta_bytes": self.delta_bytes,
                "full_bytes": self.full_bytes,
                "messages": self.messages,
                "transfer_bytes": self.transfer_bytes,
                "transfer_ratio": self.transfer_ratio}


class ReplicationScheme:
    """An ordered collection of replication hash functions ``Hr``."""

    def __init__(self, hashes: Sequence[PairwiseIndependentHash]) -> None:
        if not hashes:
            raise ReplicationConfigurationError("the replication scheme needs at least one hash function")
        names = [hash_fn.name for hash_fn in hashes]
        if len(set(names)) != len(names):
            raise ReplicationConfigurationError(f"duplicate hash function names in Hr: {names}")
        self._hashes: List[PairwiseIndependentHash] = list(hashes)
        # ``rng.shuffle``'s swaps, last index first: (index, bound, bits of bound).
        self._swaps = tuple((index, index + 1, (index + 1).bit_length())
                            for index in range(len(hashes) - 1, 0, -1))

    # ---------------------------------------------------------------- access
    @property
    def hashes(self) -> Sequence[PairwiseIndependentHash]:
        """The replication hash functions, in their canonical order."""
        return tuple(self._hashes)

    @property
    def names(self) -> List[str]:
        """The names of the replication hash functions."""
        return [hash_fn.name for hash_fn in self._hashes]

    @property
    def factor(self) -> int:
        """``|Hr|`` — the replication factor."""
        return len(self._hashes)

    def __len__(self) -> int:
        return len(self._hashes)

    def __iter__(self) -> Iterator[PairwiseIndependentHash]:
        return iter(self._hashes)

    def __getitem__(self, index: int) -> PairwiseIndependentHash:
        return self._hashes[index]

    # ------------------------------------------------------------ batched ops
    def replicated_requests(self, items: Sequence, stamps: Sequence) -> List[tuple]:
        """Expand ``(key, data)`` items into per-replica write requests.

        Lays the requests out item-major over ``Hr`` — the contract
        :meth:`fold_batch_acceptance` relies on — with ``stamps[i]`` providing
        the ``(timestamp, version)`` pair stamped on every replica of item
        ``i``.  This is the single place that encodes the batched-write
        request layout shared by the currency services.
        """
        requests: List[tuple] = []
        for (key, data), (timestamp, version) in zip(items, stamps):
            for hash_fn in self._hashes:
                requests.append((key, hash_fn, data, timestamp, version))
        return requests

    def fold_batch_acceptance(self, accepted: Sequence[bool],
                              item_count: int) -> List[int]:
        """Per-item acceptance counts for a :meth:`replicated_requests` batch.

        ``accepted`` is the flag list returned by ``DHTNetwork.put_many`` for
        a request list built by :meth:`replicated_requests`; item ``i``'s
        flags occupy the contiguous slice ``[i * factor, (i + 1) * factor)``.
        """
        factor = self.factor
        return [sum(1 for stored in accepted[index * factor:(index + 1) * factor]
                    if stored)
                for index in range(item_count)]

    def shuffled(self, rng: random.Random) -> List[PairwiseIndependentHash]:
        """The hash functions in a random probe order.

        UMS probes replicas one by one; probing in random order makes the
        number of probes follow the geometric model of the paper's cost
        analysis (Section 3.3) even when stale replicas cluster on particular
        hash functions.  The draws are ``rng.shuffle``'s own (the rejection
        loop of ``Random._randbelow`` over ``getrandbits``), made inline.
        """
        order = list(self._hashes)
        getrandbits = rng.getrandbits
        for index, bound, bits in self._swaps:
            pick = getrandbits(bits)
            while pick >= bound:
                pick = getrandbits(bits)
            order[index], order[pick] = order[pick], order[index]
        return order

    # -------------------------------------------------------------- delta sync
    def sync_replicas(self, network: DHTNetwork,
                      keys: Optional[Sequence[Any]] = None, *,
                      trace: Optional[TraceSummary] = None
                      ) -> ReplicaSyncReport:
        """One anti-entropy round over ``keys`` (default: every stored key).

        For each key the round inspects the replica stored at ``rsp(k, h)``
        for every ``h`` in ``Hr``, elects the newest copy under the store's
        reconciliation rule, and pushes it only to the holders whose copy
        fell behind — the holders' summaries (their timestamp/version tokens)
        are what travels in the other direction, so up-to-date replicas cost
        a few summary bytes instead of a data transfer.  Replicas diverged by
        churn, failures or ``unreachable`` writes converge to the newest
        committed copy; an already-consistent population ships nothing.

        The round draws no randomness and resolves responsibles directly from
        the overlay map, so interleaving it with seeded workloads keeps their
        RNG streams bit-identical.
        """
        if keys is None:
            discovered = {entry.key
                          for peer_id in network.alive_peer_ids()
                          for entry in network.peer(peer_id).store.values()}
            keys = sorted(discovered, key=repr)
        sizes = network.message_sizes
        shipped = applied = skipped = slots = 0
        summary_tokens = 0
        deliveries: Dict[int, int] = {}
        summary_holders: Dict[int, int] = {}
        for key in keys:
            replicas = []
            for hash_fn in self._hashes:
                responsible = network.responsible_peer(key, hash_fn)
                entry = network.peer(responsible).store.get(hash_fn.name, key)
                replicas.append((hash_fn, responsible, entry))
                slots += 1
                if entry is not None:
                    summary_tokens += 1
                    summary_holders[responsible] = \
                        summary_holders.get(responsible, 0) + 1
            newest = None
            for _hash_fn, _responsible, entry in replicas:
                if entry is not None and (newest is None
                                          or entry.is_newer_than(newest)):
                    newest = entry
            if newest is None:
                continue
            for hash_fn, responsible, entry in replicas:
                # The sender-side delta filter: ship only where the newest
                # copy advanced past the holder's token (equal BRK versions
                # are "not advanced", so a consistent population converges
                # to zero shipments instead of last-writer-wins churn).
                if entry is not None and not advanced_past(
                        newest, reconciliation_token(entry)):
                    skipped += 1
                    continue
                accepted = network.put(key, hash_fn, newest.data,
                                       timestamp=newest.timestamp,
                                       version=newest.version,
                                       origin=responsible)
                shipped += 1
                applied += int(accepted)
                deliveries[responsible] = deliveries.get(responsible, 0) + 1
        summary_bytes = sum(sizes.control_bytes
                            + SYNC_SUMMARY_ENTRY_BYTES * count
                            for count in summary_holders.values())
        delta_bytes = sum(sizes.control_bytes + sizes.data_bytes * count
                          for count in deliveries.values())
        full_bytes = sizes.data_bytes * slots
        messages = len(summary_holders) + len(deliveries)
        if trace is not None:
            for holder in sorted(summary_holders):
                trace.record(MessageKind.SYNC_SUMMARY, source=holder,
                             size_bytes=(sizes.control_bytes
                                         + SYNC_SUMMARY_ENTRY_BYTES
                                         * summary_holders[holder]))
            for dest in sorted(deliveries):
                trace.record(MessageKind.SYNC_DELTA, dest=dest,
                             size_bytes=(sizes.control_bytes
                                         + sizes.data_bytes * deliveries[dest]))
        network.stats.maintenance_messages += messages
        network.stats.sync_rounds += 1
        network.stats.sync_entries_shipped += shipped
        network.stats.handover_entries_skipped += skipped
        return ReplicaSyncReport(keys=len(keys), replica_slots=slots,
                                 entries_shipped=shipped,
                                 entries_applied=applied,
                                 entries_skipped=skipped,
                                 summary_bytes=summary_bytes,
                                 delta_bytes=delta_bytes,
                                 full_bytes=full_bytes, messages=messages)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReplicationScheme(factor={self.factor})"
