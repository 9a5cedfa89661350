"""Poisson arrivals used by the simulation harness.

The paper times both peer departures and data updates with Poisson processes
(Table 1): departures at ``λ = 1/second`` over the whole network, updates at
``λ = 1/hour`` per data item.  :func:`exponential_interval` draws one
inter-arrival interval (churn draws each next departure with it);
:func:`poisson_arrival_times` generates a static schedule of arrival times
(the scenarios' update and query schedules).
"""

from __future__ import annotations

import math
import random
from typing import List

__all__ = ["exponential_interval", "poisson_arrival_times"]


def exponential_interval(rate: float, rng: random.Random) -> float:
    """One inter-arrival interval of a Poisson process with the given rate (events/second)."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    # Inverse-CDF sampling; guard against u == 0.
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -math.log(u) / rate


def poisson_arrival_times(rate: float, duration: float,
                          rng: random.Random) -> List[float]:
    """Arrival times of a Poisson process with ``rate`` events/second over ``[0, duration)``."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    times: List[float] = []
    clock = 0.0
    while True:
        clock += exponential_interval(rate, rng)
        if clock >= duration:
            return times
        times.append(clock)

