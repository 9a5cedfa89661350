"""Probabilistic cost analysis of UMS (Section 3.3) and of the indirect
initialisation algorithm (Section 4.2.2).

The central quantity is ``pt``, the *probability of currency and availability*
at retrieval time: the fraction of replication hash functions whose current
responsible holds a replica that is both available and current.  The paper
derives:

* Equation 1 — the expected number of replicas UMS retrieves for a finite
  replica set ``Hr``;
* Equation 4 / Theorem 1 — the bound ``E[X] < 1/pt``;
* Equation 5 — ``E[X] ≤ min(1/pt, |Hr|)``;
* ``ps = 1 − (1 − pt)^|Hr|`` — the success probability of the indirect
  counter-initialisation algorithm.

These functions are used by the analysis benchmarks (which compare the theory
with the empirical behaviour of :class:`~repro.core.ums.UpdateManagementService`)
and by the examples.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "expected_retrievals",
    "expected_retrievals_upper_bound",
    "expected_probes",
    "geometric_probe_distribution",
    "indirect_success_probability",
    "replicas_needed_for_success",
    "retrieval_bound",
]


def _validate_probability(pt: float) -> None:
    if not 0.0 <= pt <= 1.0:
        raise ValueError(f"pt must be a probability in [0, 1], got {pt}")


def _validate_replicas(num_replicas: int) -> None:
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")


def geometric_probe_distribution(pt: float, probe_index: int) -> float:
    """``Prob(X = i)``: the first current replica is found at probe ``i`` (1-based).

    This is the geometric law the paper uses: ``pt · (1 − pt)^(i−1)``.
    """
    _validate_probability(pt)
    if probe_index < 1:
        raise ValueError(f"probe_index must be >= 1, got {probe_index}")
    return pt * (1.0 - pt) ** (probe_index - 1)


def expected_retrievals(pt: float, num_replicas: Optional[int] = None) -> float:
    """Equation 1 (finite sum) or Equation 2 (infinite sum when ``num_replicas`` is ``None``).

    Note this is the paper's quantity: the expectation is taken over the event
    "a current replica is found at probe i"; runs in which no current replica
    exists contribute zero.  See :func:`expected_probes` for the operational
    expected number of ``get`` calls UMS performs.
    """
    _validate_probability(pt)
    if pt == 0.0:
        return 0.0
    if num_replicas is None:
        # Closed form of the infinite series: sum i*pt*(1-pt)^(i-1) = 1/pt.
        return 1.0 / pt
    _validate_replicas(num_replicas)
    return sum(index * geometric_probe_distribution(pt, index)
               for index in range(1, num_replicas + 1))


def expected_retrievals_upper_bound(pt: float) -> float:
    """Theorem 1: ``E[X] < 1/pt`` (infinite for ``pt = 0``)."""
    _validate_probability(pt)
    if pt == 0.0:
        return float("inf")
    return 1.0 / pt


def retrieval_bound(pt: float, num_replicas: int) -> float:
    """Equation 5: ``E[X] ≤ min(1/pt, |Hr|)``."""
    _validate_probability(pt)
    _validate_replicas(num_replicas)
    if pt == 0.0:
        return float(num_replicas)
    return min(1.0 / pt, float(num_replicas))


def expected_probes(pt: float, num_replicas: int) -> float:
    """Operational expectation of the number of ``get_h`` calls per retrieve.

    UMS probes until it finds a current replica or exhausts ``Hr``; when no
    probe succeeds it has still performed ``|Hr|`` gets.  This refines the
    paper's Equation 1 (which ignores the unsuccessful case) and is what the
    empirical benchmarks measure.
    """
    _validate_probability(pt)
    _validate_replicas(num_replicas)
    if pt == 0.0:
        return float(num_replicas)
    expectation = sum(index * geometric_probe_distribution(pt, index)
                      for index in range(1, num_replicas + 1))
    expectation += num_replicas * (1.0 - pt) ** num_replicas
    return expectation


def indirect_success_probability(pt: float, num_replicas: int) -> float:
    """``ps = 1 − (1 − pt)^|Hr|``: the indirect algorithm finds the latest timestamp."""
    _validate_probability(pt)
    _validate_replicas(num_replicas)
    return 1.0 - (1.0 - pt) ** num_replicas


# reprolint: allow[REP008] reason=the paper's API: section 4.2.2's 13 functions give ps > 99 % at pt = 0.30 (tests/core/test_analysis.py)
def replicas_needed_for_success(pt: float, target_probability: float) -> int:
    """Smallest ``|Hr|`` such that ``ps >= target_probability``.

    The paper's example: with ``pt = 0.30``, 13 replication hash functions give
    ``ps > 99 %``.
    """
    _validate_probability(pt)
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    if pt == 0.0:
        raise ValueError("no number of replicas can succeed when pt is 0")
    count = 1
    while indirect_success_probability(pt, count) < target_probability:
        count += 1
        if count > 10_000:  # pragma: no cover - defensive
            raise RuntimeError("replica count search did not converge")
    return count

