"""Replica auditing: a diagnostic view of the currency state of the DHT.

``audit_key`` classifies the replicas of one key as *current*, *stale* or
*missing* relative to the highest timestamp stored anywhere, and reports the
empirical probability of currency and availability ``pt`` — the quantity the
paper's cost analysis is written in.  ``audit_keys`` aggregates over a key set
and is used by operators (and the test suite) to understand what churn did to
the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.replication import ReplicationScheme
from repro.dht.network import DHTNetwork

__all__ = ["KeyAudit", "ReplicaStatus", "AuditReport", "audit_key", "audit_keys"]


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
    def stale_count(self) -> int:
        return sum(1 for status in self.statuses.values() if status == ReplicaStatus.STALE)

    @property
    def missing_count(self) -> int:
        return sum(1 for status in self.statuses.values() if status == ReplicaStatus.MISSING)

    @property
    def currency_probability(self) -> float:
        """The empirical ``pt`` of this key (current replicas / |Hr|)."""
        if not self.statuses:
            return 0.0
        return self.current_count / self.replica_count

    @property
    def is_available(self) -> bool:
        """At least one replica (current or stale) is stored somewhere."""
        return self.current_count + self.stale_count > 0


@dataclass
class AuditReport:
    """Aggregate audit over a set of keys."""

    audits: List[KeyAudit] = field(default_factory=list)

    @property
    def key_count(self) -> int:
        return len(self.audits)

    @property
    def mean_currency_probability(self) -> float:
        """Average empirical ``pt`` over the audited keys."""
        if not self.audits:
            return 0.0
        return sum(audit.currency_probability for audit in self.audits) / len(self.audits)

    @property
    def fully_current_keys(self) -> int:
        """Keys whose every replica is current."""
        return sum(1 for audit in self.audits
                   if audit.current_count == audit.replica_count)

    @property
    def unavailable_keys(self) -> int:
        """Keys with no replica stored anywhere (all holders failed)."""
        return sum(1 for audit in self.audits if not audit.is_available)

    def keys_with_stale_replicas(self) -> List[Any]:
        """Keys that currently expose at least one stale replica."""
        return [audit.key for audit in self.audits if audit.stale_count > 0]

    def summary(self) -> Dict[str, float]:
        return {
            "keys": float(self.key_count),
            "mean_pt": self.mean_currency_probability,
            "fully_current_keys": float(self.fully_current_keys),
            "unavailable_keys": float(self.unavailable_keys),
            "keys_with_stale_replicas": float(len(self.keys_with_stale_replicas())),
        }


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


def audit_keys(network: DHTNetwork, replication: ReplicationScheme,
               keys: Iterable[Any]) -> AuditReport:
    """Audit several keys and return the aggregate report."""
    return AuditReport(audits=[audit_key(network, replication, key) for key in keys])
