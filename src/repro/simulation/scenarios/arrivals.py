"""Arrival models: *when* the measured queries are issued.

The paper issues its queries at uniformly distributed times over the run
(Section 5.1).  That averages over the network's states; bursty arrivals
instead *sample* the states that matter — a flash crowd lands hundreds of
queries inside one churn epoch, a diurnal ramp concentrates load while the
update workload keeps its own clock.  Four models ship:

* :class:`UniformArrivals` — the paper's model (exact count, uniform times);
* :class:`PoissonArrivals` — a homogeneous Poisson stream (count varies);
* :class:`FlashCrowdArrivals` — background uniform traffic plus one or more
  narrow burst windows carrying a configured share of the queries;
* :class:`DiurnalArrivals` — a smooth sinusoidal intensity ramp (inverse-CDF
  sampled), modelling day/night load cycles.

Every model returns its times in ``[0, duration_s)`` in draw order, not
sorted, and is a pure function of its configuration and the caller's RNG.
The uniform model draws lazily, one time per step of the iteration, so a
caller can interleave its own draws: the harness draws each query's key
right after its time, which is the paper workload's draw order.
"""

from __future__ import annotations

from bisect import bisect_right
from math import pi, sin
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Type

from repro.dht.registry import lookup
from repro.simulation.processes import poisson_arrival_times

__all__ = [
    "ArrivalModel",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "UniformArrivals",
    "build_arrivals",
]


class ArrivalModel:
    """Base class: generates event times over ``[0, duration_s)``."""

    #: Registry key used by :func:`build_arrivals` and the scenario specs.
    kind: str = "base"

    def times(self, num_events: int, duration_s: float, rng) -> Iterable[float]:
        """Arrival times in draw order; ``num_events`` is a target, see each model."""
        raise NotImplementedError

    @staticmethod
    def _check(num_events: int, duration_s: float) -> None:
        if num_events < 1:
            raise ValueError("num_events must be >= 1")
        if duration_s <= 0:
            raise ValueError("duration_s must be > 0")


class UniformArrivals(ArrivalModel):
    """Exactly ``num_events`` times, uniformly distributed — the paper's model."""

    kind = "uniform"

    def times(self, num_events: int, duration_s: float, rng) -> Iterable[float]:
        self._check(num_events, duration_s)
        return (rng.uniform(0.0, duration_s) for _ in range(num_events))


class PoissonArrivals(ArrivalModel):
    """A homogeneous Poisson stream.

    ``rate_per_s`` fixes the intensity; when omitted it is derived as
    ``num_events / duration_s`` so the *expected* count matches the target
    (the realised count varies run to run, which is the point of the model).
    """

    kind = "poisson"

    def __init__(self, rate_per_s: float = 0.0) -> None:
        if rate_per_s < 0:
            raise ValueError("rate_per_s must be >= 0 (0 derives it from the target)")
        self.rate_per_s = rate_per_s

    def times(self, num_events: int, duration_s: float, rng) -> List[float]:
        self._check(num_events, duration_s)
        rate = self.rate_per_s if self.rate_per_s > 0 else num_events / duration_s
        return poisson_arrival_times(rate, duration_s, rng)


class FlashCrowdArrivals(ArrivalModel):
    """Uniform background traffic plus narrow high-intensity burst windows.

    ``bursts`` is a sequence of ``(center, width, share)`` triples, all as
    fractions: the burst window is ``[center - width/2, center + width/2]``
    of the run and carries ``share`` of the total queries (uniformly within
    the window).  Shares must sum to less than 1; the remainder is uniform
    background.  Windows must lie inside ``[0, 1]``, so every generated time
    is guaranteed inside the run — the bound the property tests pin.
    """

    kind = "flash-crowd"

    def __init__(self, bursts: Sequence[Sequence[float]] = ((0.5, 0.1, 0.6),)) -> None:
        parsed: List[Tuple[float, float, float]] = []
        for burst in bursts:
            center, width, share = (float(value) for value in burst)
            if width <= 0 or share <= 0:
                raise ValueError("burst width and share must be > 0")
            if center - width / 2 < 0 or center + width / 2 > 1:
                raise ValueError(f"burst window {burst!r} exceeds the run: "
                                 "center ± width/2 must stay within [0, 1]")
            parsed.append((center, width, share))
        if not parsed:
            raise ValueError("at least one burst is required")
        if sum(share for _, _, share in parsed) >= 1.0:
            raise ValueError("burst shares must sum to < 1 "
                             "(the rest is background traffic)")
        self.bursts = tuple(parsed)

    def times(self, num_events: int, duration_s: float, rng) -> List[float]:
        self._check(num_events, duration_s)
        generated: List[float] = []
        allocated = 0
        for center, width, share in self.bursts:
            count = int(num_events * share)
            allocated += count
            start = (center - width / 2) * duration_s
            stop = (center + width / 2) * duration_s
            generated.extend(rng.uniform(start, stop) for _ in range(count))
        generated.extend(rng.uniform(0.0, duration_s)
                         for _ in range(num_events - allocated))
        return generated


class DiurnalArrivals(ArrivalModel):
    """A sinusoidal day/night intensity ramp, inverse-CDF sampled.

    The intensity is ``1 + amplitude * sin(2π * cycles * f - π/2)`` over the
    run fraction ``f`` — the run starts at the trough and completes
    ``cycles`` full cycles.  Exactly ``num_events`` times are drawn by
    inverting the discretised cumulative intensity (``resolution`` bins with
    linear interpolation), so the count is exact and every time lies inside
    the run.
    """

    kind = "diurnal"

    def __init__(self, cycles: int = 1, amplitude: float = 0.8,
                 resolution: int = 512) -> None:
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if resolution < 8:
            raise ValueError("resolution must be >= 8")
        self.cycles = cycles
        self.amplitude = amplitude
        self.resolution = resolution
        self._cdf = self._build_cdf()

    def _intensity(self, fraction: float) -> float:
        return 1.0 + self.amplitude * sin(2.0 * pi * self.cycles * fraction - pi / 2.0)

    def _build_cdf(self) -> List[float]:
        # Midpoint-rule cumulative intensity over ``resolution`` bins,
        # normalised to [0, 1]; entry i is the CDF at bin edge i + 1.
        step = 1.0 / self.resolution
        masses = [self._intensity((index + 0.5) * step)
                  for index in range(self.resolution)]
        total = sum(masses)
        cdf: List[float] = []
        running = 0.0
        for mass in masses:
            running += mass / total
            cdf.append(running)
        cdf[-1] = 1.0
        return cdf

    def times(self, num_events: int, duration_s: float, rng) -> List[float]:
        self._check(num_events, duration_s)
        step = 1.0 / self.resolution
        generated: List[float] = []
        for _ in range(num_events):
            u = rng.random()
            index = bisect_right(self._cdf, u)
            index = min(index, self.resolution - 1)
            lower = self._cdf[index - 1] if index > 0 else 0.0
            span = self._cdf[index] - lower
            within = (u - lower) / span if span > 0 else 0.0
            fraction = (index + within) * step
            generated.append(min(fraction, 1.0 - 1e-12) * duration_s)
        return generated


#: Model name -> class, the dispatch table of :func:`build_arrivals`.
ARRIVAL_MODELS: Dict[str, Type[ArrivalModel]] = {
    UniformArrivals.kind: UniformArrivals,
    PoissonArrivals.kind: PoissonArrivals,
    FlashCrowdArrivals.kind: FlashCrowdArrivals,
    DiurnalArrivals.kind: DiurnalArrivals,
}


def build_arrivals(config: Mapping[str, Any]) -> ArrivalModel:
    """Build an arrival model from a scenario-spec dict.

    ``config["model"]`` selects the class (default ``"uniform"``); the
    remaining keys are passed to its constructor.  ``bursts`` entries arrive
    as lists after a JSON round-trip; the constructor normalises them.
    """
    options = dict(config)
    name = options.pop("model", "uniform")
    return lookup(ARRIVAL_MODELS, name, "arrival model")(**options)
