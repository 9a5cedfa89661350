"""Read/write-mix profiles for the paper's application archetypes.

Section 6 of the paper motivates UMS with three applications; each implies a
different mix of queries and updates over the key population:

* **auction** — hot items attract both the reads *and* the writes (bids), so
  updates follow the query popularity and run well above the Table 1 rate;
* **reservation** — bookings update the popular slots, at a moderate rate;
* **agenda** — read-mostly sharing: updates are rare and spread uniformly
  (people edit their own agenda regardless of who reads it).

A :class:`WorkloadProfile` scales the Table 1 update rate, optionally skews
the per-key update rates to follow the scenario's popularity model, and can
scale the query count.  Profiles are declared either field by field or via
``{"archetype": "auction"}`` in a scenario spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping

from repro.dht.registry import lookup

__all__ = ["ARCHETYPES", "WorkloadProfile", "build_profile"]


@dataclass(frozen=True)
class WorkloadProfile:
    """How an application shapes the update/query workload.

    Attributes
    ----------
    name:
        Display name (the archetype name, or ``"default"``).
    update_rate_multiplier:
        Scales ``SimulationParameters.update_rate_per_hour``; the total
        update budget of the run scales with it.
    updates_follow_popularity:
        When true, the *total* update budget is distributed over keys
        proportionally to the scenario's popularity weights (evaluated at the
        start of the run) instead of uniformly — hot keys get hot writes.
    query_multiplier:
        Scales ``SimulationParameters.num_queries`` (rounded, minimum 1).
    """

    name: str = "default"
    update_rate_multiplier: float = 1.0
    updates_follow_popularity: bool = False
    query_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.update_rate_multiplier < 0:
            raise ValueError("update_rate_multiplier must be >= 0")
        if self.query_multiplier <= 0:
            raise ValueError("query_multiplier must be > 0")

    def scaled_queries(self, num_queries: int) -> int:
        """The effective query count for this profile (at least 1)."""
        if num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        return max(1, round(num_queries * self.query_multiplier))


#: The shipped application archetypes (Section 6 of the paper).
ARCHETYPES: Dict[str, WorkloadProfile] = {
    "auction": WorkloadProfile(name="auction", update_rate_multiplier=4.0,
                               updates_follow_popularity=True),
    "reservation": WorkloadProfile(name="reservation", update_rate_multiplier=2.0,
                                   updates_follow_popularity=True),
    "agenda": WorkloadProfile(name="agenda", update_rate_multiplier=0.5,
                              updates_follow_popularity=False),
}


def build_profile(config: Mapping[str, Any]) -> WorkloadProfile:
    """Build a workload profile from a scenario-spec dict.

    ``{"archetype": "auction"}`` starts from the named archetype; any other
    keys override its fields.  Without an archetype the keys configure a
    :class:`WorkloadProfile` directly (missing fields keep their defaults).
    """
    options = dict(config)
    archetype = options.pop("archetype", None)
    if archetype is not None:
        base = lookup(ARCHETYPES, archetype, "archetype")
        return replace(base, **options) if options else base
    return WorkloadProfile(**options)
