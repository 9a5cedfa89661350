"""Key-popularity models: which keys the queries (and skewed updates) hit.

The paper's query model picks keys uniformly at random (Section 5.1).  Real
workloads are skewed: a few auctions attract most of the bids, a few meeting
slots most of the lookups — and skew is exactly where timestamp-certified
retrieval is stressed, because hot keys concentrate both the reads *and* the
updates that can make replicas stale.  Three models ship:

* :class:`UniformPopularity` — the paper's model (every key equally likely);
* :class:`ZipfPopularity` — static hotspot, weight of the *i*-th key
  proportional to ``1 / (i + 1) ** exponent``;
* :class:`ShiftingHotspotPopularity` — a Zipf hotspot whose hottest key
  rotates through the key population over a configurable number of phases,
  modelling interest drift (yesterday's hot auction is cold today).

A model is a deterministic function of its configuration: ``weights`` returns
a normalised distribution over key *indices* for a point in (fractional)
time, and ``choose`` draws one key from it using the caller's RNG — so a
seeded schedule is reproducible bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type

from repro.dht.registry import lookup

__all__ = [
    "KeyPopularityModel",
    "ShiftingHotspotPopularity",
    "UniformPopularity",
    "ZipfPopularity",
    "build_popularity",
]


class KeyPopularityModel:
    """Base class: a time-dependent probability distribution over key indices."""

    #: Registry key used by :func:`build_popularity` and the scenario specs.
    kind: str = "base"

    def weights(self, num_keys: int, time_fraction: float = 0.0) -> List[float]:
        """Normalised selection weights for ``num_keys`` keys at ``time_fraction``.

        ``time_fraction`` is the elapsed fraction of the run in ``[0, 1]``;
        static models ignore it.  The returned list sums to 1.
        """
        raise NotImplementedError

    def choose(self, keys: Sequence[Any], time_fraction: float, rng) -> Any:
        """Draw one key according to the weights at ``time_fraction``."""
        if not keys:
            raise ValueError("cannot choose from an empty key population")
        cumulative = self._cumulative(len(keys), time_fraction)
        index = bisect_right(cumulative, rng.random())
        return keys[min(index, len(keys) - 1)]

    def _cumulative(self, num_keys: int, time_fraction: float) -> List[float]:
        """Cumulative weights (cached per ``(num_keys, phase)`` by subclasses)."""
        return list(accumulate(self.weights(num_keys, time_fraction)))


class UniformPopularity(KeyPopularityModel):
    """Every key is equally likely — the paper's Section 5.1 query model."""

    kind = "uniform"

    def weights(self, num_keys: int, time_fraction: float = 0.0) -> List[float]:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        return [1.0 / num_keys] * num_keys

    def choose(self, keys: Sequence[Any], time_fraction: float, rng) -> Any:
        # One rng.choice per query, the paper workload's key draw.
        if not keys:
            raise ValueError("cannot choose from an empty key population")
        return rng.choice(keys)


class ZipfPopularity(KeyPopularityModel):
    """A static Zipf hotspot: key *i* has weight ``1 / (i + 1) ** exponent``.

    ``exponent`` controls the skew (1.0–1.2 covers most measured web/P2P
    workloads); ``hot_offset`` rotates the ranking so the hottest key is
    ``keys[hot_offset]`` instead of ``keys[0]``.
    """

    kind = "zipf"

    def __init__(self, exponent: float = 1.1, hot_offset: int = 0) -> None:
        if exponent <= 0:
            raise ValueError("exponent must be > 0")
        if hot_offset < 0:
            raise ValueError("hot_offset must be >= 0")
        self.exponent = exponent
        self.hot_offset = hot_offset
        self._cache: Dict[Tuple[int, int], List[float]] = {}

    def _rotation(self, num_keys: int, time_fraction: float) -> int:
        return self.hot_offset % num_keys

    def weights(self, num_keys: int, time_fraction: float = 0.0) -> List[float]:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        rotation = self._rotation(num_keys, time_fraction)
        raw = [1.0 / (rank + 1) ** self.exponent for rank in range(num_keys)]
        total = sum(raw)
        ranked = [weight / total for weight in raw]
        # Rotate so the hottest rank lands on index ``rotation``.
        return [ranked[(index - rotation) % num_keys] for index in range(num_keys)]

    def _cumulative(self, num_keys: int, time_fraction: float) -> List[float]:
        key = (num_keys, self._rotation(num_keys, time_fraction))
        cumulative = self._cache.get(key)
        if cumulative is None:
            cumulative = list(accumulate(self.weights(num_keys, time_fraction)))
            self._cache[key] = cumulative
        return cumulative


class ShiftingHotspotPopularity(ZipfPopularity):
    """A Zipf hotspot that rotates through the key population over time.

    The run is divided into ``phases`` equal windows; in phase *p* the
    hottest key is ``keys[p * num_keys // phases]`` and the Zipf ranking
    rotates with it.  This models interest drift: replicas of a *newly* hot
    key were mostly written while the key was cold, so certified retrieval
    faces colder caches and staler replicas than under a static hotspot.
    """

    kind = "shifting-hotspot"

    def __init__(self, exponent: float = 1.1, phases: int = 4) -> None:
        super().__init__(exponent=exponent)
        if phases < 1:
            raise ValueError("phases must be >= 1")
        self.phases = phases

    def _rotation(self, num_keys: int, time_fraction: float) -> int:
        clamped = min(max(time_fraction, 0.0), 1.0)
        phase = min(self.phases - 1, int(clamped * self.phases))
        return (phase * num_keys // self.phases) % num_keys


#: Model name -> class, the dispatch table of :func:`build_popularity`.
POPULARITY_MODELS: Dict[str, Type[KeyPopularityModel]] = {
    UniformPopularity.kind: UniformPopularity,
    ZipfPopularity.kind: ZipfPopularity,
    ShiftingHotspotPopularity.kind: ShiftingHotspotPopularity,
}


def build_popularity(config: Mapping[str, Any]) -> KeyPopularityModel:
    """Build a popularity model from a scenario-spec dict.

    ``config["model"]`` selects the class (default ``"uniform"``); the
    remaining keys are passed to its constructor.
    """
    options = dict(config)
    name = options.pop("model", "uniform")
    return lookup(POPULARITY_MODELS, name, "popularity model")(**options)
