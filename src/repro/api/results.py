"""Shared result types and consistency levels of the client API.

Every currency service registered in :mod:`repro.api.services` — the paper's
UMS and the BRICKS baseline alike — returns the *same* result types from its
operations, so callers (applications, the simulation harness, the experiment
generators, benchmarks) can swap algorithms by configuration and still compare
costs field by field:

* :class:`InsertResult` — outcome of a write: how many replicas accepted the
  new value, the KTS timestamp (UMS) or the version number (BRK) it carries,
  and the trace — a :class:`~repro.dht.messages.TraceSummary` of its
  messages, in process and over the wire alike;
* :class:`RetrieveResult` — outcome of a read: the data, whether a replica was
  found, whether it is *certified current* (only UMS can certify), how many
  replicas were probed, and the trace;
* :class:`BatchInsertResult` / :class:`BatchRetrieveResult` — outcomes of the
  batched operations, which share one trace so the amortised message cost of
  the whole batch is directly comparable with a per-key loop.

:class:`Consistency` names the per-retrieve freshness contracts supported by
the services (the paper's probabilistic currency guarantee, a first-replica
read, and a bounded-probe best effort).

This module sits *below* :mod:`repro.core` in the layering — the services
import the result types from here — and has no dependency on the service or
network layers beyond the message-trace types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

from repro.dht.messages import TraceSummary
from repro.dht.model import slotted_init

__all__ = [
    "BatchInsertResult",
    "BatchRetrieveResult",
    "Consistency",
    "InsertResult",
    "RetrieveResult",
]


class Consistency:
    """Per-retrieve freshness contracts (threaded through every service).

    * :data:`CURRENT` — the paper's Figure 2 retrieval: ask KTS for the last
      timestamp generated for the key, probe replicas until one carries it,
      and certify the answer (``is_current=True``) when it does.  BRK has no
      timestamps; under this level it retrieves *every* replica and returns
      the highest version, never certifying.
    * :data:`ANY` — first-replica read: return the first replica found, with
      no KTS lookup and no certification (the cheapest possible read — what a
      plain DHT ``get`` or a single BRICKS probe would give you).
    * :data:`BEST_EFFORT` — bounded probes: consult KTS, probe at most
      ``max_probes`` replicas and return the freshest replica found, certified
      only if the latest timestamp was actually met.
    """

    CURRENT = "current"
    ANY = "any"
    BEST_EFFORT = "best-effort"

    ALL = (CURRENT, ANY, BEST_EFFORT)

    #: Probe bound of ``BEST_EFFORT`` when the caller does not pass one.
    DEFAULT_BEST_EFFORT_PROBES = 3

    @classmethod
    def validate(cls, level: str) -> str:
        """Return ``level`` unchanged, or raise ``ValueError`` if unknown."""
        if level not in cls.ALL:
            raise ValueError(f"unknown consistency level {level!r}; "
                             f"expected one of {cls.ALL}")
        return level

    @classmethod
    def probe_limit(cls, level: str, max_probes: Optional[int],
                    replication_factor: int) -> int:
        """How many replicas a retrieve may probe under ``level``.

        Shared by every currency service so the cost contract of the levels
        stays identical across algorithms: an explicit ``max_probes`` always
        wins (clamped to the replication factor), ``BEST_EFFORT`` defaults to
        :data:`DEFAULT_BEST_EFFORT_PROBES`, and the other levels may probe
        every replica.
        """
        if max_probes is not None:
            if max_probes < 1:
                raise ValueError(f"max_probes must be >= 1, got {max_probes}")
            return min(max_probes, replication_factor)
        if level == cls.BEST_EFFORT:
            return min(cls.DEFAULT_BEST_EFFORT_PROBES, replication_factor)
        return replication_factor


@slotted_init
@dataclass(frozen=True, slots=True)
class InsertResult:
    """Outcome of an insert, shared by every currency service.

    ``timestamp`` is set by UMS (the KTS timestamp stamped on the replicas);
    ``version`` is set by BRK (the version number written everywhere).  The
    remaining fields have identical semantics across services.  Construct
    with keyword arguments — the field order is not part of the contract
    (and differs from the pre-unification UMS/BRK result types).
    """

    key: Any
    replicas_written: int
    replicas_attempted: int
    trace: TraceSummary
    timestamp: Any = None
    version: Optional[int] = None
    service: Optional[str] = None

    @property
    def fully_replicated(self) -> bool:
        """Whether every replica holder accepted the new value."""
        return self.replicas_written == self.replicas_attempted

    @property
    def message_count(self) -> int:
        """Communication cost of the insert (total number of messages)."""
        return self.trace.message_count


@slotted_init
@dataclass(frozen=True, slots=True)
class RetrieveResult:
    """Outcome of a retrieve, shared by every currency service.

    ``is_current`` is the paper's currency certificate: ``True`` only when the
    returned replica provably carries the last timestamp generated for the
    key.  BRK can never certify (``is_current`` is always ``False``);
    ``ambiguous`` is its failure mode — two replicas with the same highest
    version but different data.
    """

    key: Any
    data: Any
    found: bool
    is_current: bool
    replicas_inspected: int
    trace: TraceSummary
    timestamp: Any = None
    latest_timestamp: Any = None
    version: Optional[int] = None
    ambiguous: bool = False
    consistency: str = Consistency.CURRENT
    service: Optional[str] = None

    @property
    def message_count(self) -> int:
        """Communication cost of the retrieval (total number of messages)."""
        return self.trace.message_count


class _BatchResult:
    """Common behaviour of the batched result containers."""

    __slots__ = ()

    results: Tuple[Any, ...]
    trace: TraceSummary

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __getitem__(self, index: int) -> Any:
        return self.results[index]

    @property
    def keys(self) -> Tuple[Any, ...]:
        """The keys of the batch, in request order."""
        return tuple(result.key for result in self.results)

    @property
    def message_count(self) -> int:
        """Total messages of the whole batch (the amortised cost)."""
        return self.trace.message_count


@slotted_init
@dataclass(frozen=True, slots=True)
class BatchInsertResult(_BatchResult):
    """Outcome of ``insert_many``: per-key results plus the shared batch trace.

    All per-key results reference the *same* shared trace (batched operations
    coalesce messages across keys, so per-key message attribution is not
    meaningful); use :attr:`message_count` for the batch's total cost.
    """

    results: Tuple[InsertResult, ...]
    trace: TraceSummary

    @property
    def fully_replicated(self) -> bool:
        """Whether every key reached every one of its replica holders."""
        return all(result.fully_replicated for result in self.results)


@slotted_init
@dataclass(frozen=True, slots=True)
class BatchRetrieveResult(_BatchResult):
    """Outcome of ``retrieve_many``: per-key results plus the shared batch trace."""

    results: Tuple[RetrieveResult, ...]
    trace: TraceSummary
    consistency: str = Consistency.CURRENT

    @property
    # reprolint: allow[REP008] reason=read view: tests/api/test_batched.py observes batch results through it
    def found_count(self) -> int:
        """How many keys returned a replica."""
        return sum(1 for result in self.results if result.found)

    @property
    def current_count(self) -> int:
        """How many keys returned a certified-current replica."""
        return sum(1 for result in self.results if result.is_current)

    @property
    def data(self) -> Tuple[Any, ...]:
        """The returned payloads, in request order (``None`` for misses)."""
        return tuple(result.data for result in self.results)
