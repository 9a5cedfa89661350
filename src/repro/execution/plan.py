"""Run plans: explicit, serialisable grids of simulation points.

A :class:`RunPlan` is an ordered list of :class:`RunPoint` entries — one
``(SimulationParameters, scenario, seed, repetitions)`` tuple per independent
simulation run of an experiment grid (a figure sweep, an ablation, a
scenario × overlay × service comparison, a benchmark).  Plans are pure data:

* every point has a **stable content hash** (:attr:`RunPoint.content_hash`)
  over its parameters, scenario spec and repetition count — the key of the
  on-disk run cache and the identity used by benchmark artifacts;
* plans round-trip through JSON (:meth:`RunPlan.to_dict` /
  :meth:`RunPlan.from_dict`), so a grid can be recorded next to its results
  and re-executed bit-for-bit later;
* repetition seeds are **derived deterministically** from the point's base
  seed (:func:`derive_seed`): repetition 0 runs the parameters unchanged
  (keeping single-run plans bit-compatible with a direct
  :func:`~repro.simulation.scenarios.run_scenario` call), repetition ``r``
  hashes ``(base seed, r)`` into a fresh, reproducible seed.

The points of a plan are independent by construction (each harness seeds its
own RNG streams from its parameters), which is what lets the
:class:`~repro.execution.executor.Executor` run them serially or in a
process pool with bit-identical results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.simulation.config import SimulationParameters
from repro.simulation.scenarios.registry import UNIFORM_SCENARIO
from repro.simulation.scenarios.spec import ScenarioSpec

__all__ = ["RunPlan", "RunPoint", "derive_seed", "plan_artifact_path"]

#: Derived seeds stay inside ``random.Random``'s comfortable integer range.
_SEED_BITS = 63


def derive_seed(base: Optional[int], repetition: int) -> Optional[int]:
    """Deterministic seed of repetition ``repetition`` for base seed ``base``.

    Repetition 0 *is* the base seed (so a one-repetition point reproduces a
    single run exactly); later repetitions hash ``(base, repetition)`` through
    BLAKE2s, giving independent but fully reproducible streams.  A ``None``
    base stays ``None`` — the run was never deterministic to begin with.
    """
    if base is None or repetition == 0:
        return base
    if repetition < 0:
        raise ValueError("repetition must be >= 0")
    digest = hashlib.blake2s(
        f"repro-run-seed:{base}:{repetition}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** _SEED_BITS)


def _stable_hash(payload: Dict[str, Any]) -> str:
    """BLAKE2s hex digest of a canonical-JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.blake2s(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation run of a plan.

    ``scenario`` is the :class:`ScenarioSpec` that drives the run (the
    paper's ``uniform`` workload by default); its parameter ``overrides``
    are folded into ``parameters`` at construction time (the same precedence
    :func:`~repro.simulation.scenarios.run_scenario` applies when given a
    spec and parameters), so the stored point is always the *effective*
    configuration and its hash cannot lie about what runs.

    ``label`` is a consumer-side tag (e.g. ``"1000/ums-direct"``) used for
    reporting; it does not participate in the content hash.
    """

    parameters: SimulationParameters
    scenario: ScenarioSpec = UNIFORM_SCENARIO
    repetitions: int = 1
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.scenario.overrides:
            object.__setattr__(
                self, "parameters",
                self.parameters.with_overrides(**self.scenario.overrides))
            object.__setattr__(
                self, "scenario",
                dataclasses.replace(self.scenario, overrides={}))

    # -------------------------------------------------------------- identity
    def content(self) -> Dict[str, Any]:
        """The hashed content: effective parameters, scenario, repetitions."""
        return {
            "parameters": self.parameters.describe(),
            "scenario": self.scenario.to_dict(),
            "repetitions": self.repetitions,
        }

    @property
    def content_hash(self) -> str:
        """Stable BLAKE2s hex digest of :meth:`content` (the cache key)."""
        return _stable_hash(self.content())

    def seed_for(self, repetition: int) -> Optional[int]:
        """The derived seed of one repetition (see :func:`derive_seed`)."""
        if not 0 <= repetition < self.repetitions:
            raise ValueError(f"repetition must be in [0, {self.repetitions})")
        return derive_seed(self.parameters.seed, repetition)

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot; :meth:`from_dict` round-trips it."""
        payload = dict(self.content())
        payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunPoint":
        """Rebuild a point recorded by :meth:`to_dict`."""
        return cls(parameters=SimulationParameters(**payload["parameters"]),
                   scenario=ScenarioSpec.from_dict(payload["scenario"]),
                   repetitions=payload.get("repetitions", 1),
                   label=payload.get("label"))


@dataclass
class RunPlan:
    """An ordered, named list of :class:`RunPoint` entries."""

    name: str = "plan"
    points: List[RunPoint] = field(default_factory=list)

    # ------------------------------------------------------------------ build
    def add(self, parameters: SimulationParameters, *,
            scenario: ScenarioSpec = UNIFORM_SCENARIO, repetitions: int = 1,
            label: Optional[str] = None, **overrides: Any) -> RunPoint:
        """Append one point and return it.

        The spec's ``overrides`` are applied over ``parameters`` and keyword
        ``overrides`` (e.g. ``protocol="kademlia"``) win over both — exactly
        what ``run_scenario(scenario, parameters, **overrides)`` executes.
        """
        point = RunPoint(parameters=parameters, scenario=scenario,
                         repetitions=repetitions, label=label)
        if overrides:
            point = dataclasses.replace(
                point, parameters=point.parameters.with_overrides(**overrides))
        self.points.append(point)
        return point

    # ---------------------------------------------------------------- queries
    @property
    def total_runs(self) -> int:
        """Number of individual simulation runs (points × repetitions)."""
        return sum(point.repetitions for point in self.points)

    @property
    def plan_hash(self) -> str:
        """Stable digest over the point hashes, in plan order."""
        return _stable_hash({"points": [point.content_hash
                                        for point in self.points]})

    def labels(self) -> List[Optional[str]]:
        """The point labels, in plan order."""
        return [point.label for point in self.points]

    def manifest(self) -> Dict[str, Any]:
        """Identity record for artifacts: name, hashes, per-point seeds."""
        return {
            "name": self.name,
            "plan_hash": self.plan_hash,
            "total_runs": self.total_runs,
            "points": [{"label": point.label,
                        "content_hash": point.content_hash,
                        "seed": point.parameters.seed,
                        "repetitions": point.repetitions}
                       for point in self.points],
        }

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot; :meth:`from_dict` round-trips it."""
        return {"name": self.name,
                "points": [point.to_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunPlan":
        """Rebuild a plan recorded by :meth:`to_dict`."""
        return cls(name=payload.get("name", "plan"),
                   points=[RunPoint.from_dict(point)
                           for point in payload.get("points", [])])

    # ------------------------------------------------------------- container
    def __iter__(self) -> Iterator[RunPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> RunPoint:
        return self.points[index]


def plan_artifact_path(directory: Union[str, pathlib.Path], plan: RunPlan,
                       suffix: str = ".json") -> pathlib.Path:
    """The canonical artifact path of a plan: ``<name>-<hash12><suffix>``.

    Benchmarks write their JSON outputs here so an artifact is a reproducible
    function of the named plan: same grid → same file name, changed grid →
    a new, distinguishable one.
    """
    return pathlib.Path(directory) / f"{plan.name}-{plan.plan_hash[:12]}{suffix}"
