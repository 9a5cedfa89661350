"""Replica auditing: a diagnostic view of the currency state of the DHT.

``audit_key`` classifies the replicas of one key as *current*, *stale* or
*missing* relative to the highest timestamp stored anywhere, and reports the
empirical probability of currency and availability ``pt`` — the quantity the
paper's cost analysis is written in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.replication import ReplicationScheme
from repro.dht.network import DHTNetwork

__all__ = ["KeyAudit", "ReplicaStatus", "audit_key"]


class ReplicaStatus:
    """Classification of one replica slot (one replication hash function)."""

    CURRENT = "current"
    STALE = "stale"
    MISSING = "missing"


@dataclass(frozen=True)
class KeyAudit:
    """Audit of a single key's replicas."""

    key: Any
    #: hash-function name -> ReplicaStatus
    statuses: Dict[str, str]
    latest_timestamp: Optional[int]

    @property
    def replica_count(self) -> int:
        return len(self.statuses)

    @property
    def current_count(self) -> int:
        return sum(1 for status in self.statuses.values() if status == ReplicaStatus.CURRENT)

    @property
    # reprolint: allow[REP008] reason=read view: tests/core/test_audit.py observes stale replicas through it
    def stale_count(self) -> int:
        return sum(1 for status in self.statuses.values() if status == ReplicaStatus.STALE)

    @property
    def currency_probability(self) -> float:
        """The empirical ``pt`` of this key (current replicas / |Hr|)."""
        if not self.statuses:
            return 0.0
        return self.current_count / self.replica_count


# reprolint: allow[REP008] reason=read view: tests/core/test_ums.py and tests/core/test_audit.py observe stored replica states through it
def audit_key(network: DHTNetwork, replication: ReplicationScheme, key: Any) -> KeyAudit:
    """Audit the replicas of one key at their current responsibles.

    A view of storage: *current* is the newest stamp stored anywhere, where
    ``pt`` (``UpdateManagementService.currency_probability``) takes the certified one.
    """
    entries = {}
    for hash_fn in replication:
        responsible = network.responsible_peer(key, hash_fn)
        entries[hash_fn.name] = network.peer(responsible).store.get(hash_fn.name, key)
    stamped = [entry.timestamp.value for entry in entries.values()
               if entry is not None and entry.timestamp is not None]
    latest = max(stamped) if stamped else None
    statuses = {}
    for name, entry in entries.items():
        if entry is None or entry.timestamp is None:
            statuses[name] = ReplicaStatus.MISSING
        elif latest is not None and entry.timestamp.value == latest:
            statuses[name] = ReplicaStatus.CURRENT
        else:
            statuses[name] = ReplicaStatus.STALE
    return KeyAudit(key=key, statuses=statuses, latest_timestamp=latest)

