"""Run plans: explicit, serialisable grids of simulation points.

A :class:`RunPlan` is an ordered list of :class:`RunPoint` entries — one
``(SimulationParameters, scenario)`` pair per independent simulation run of
an experiment grid (the paper's figures and ablations, the attack grid, the
scenario × overlay × service comparison).  Plans are pure data:

* every point has a **stable content hash** (:attr:`RunPoint.content_hash`)
  over its parameters and scenario spec — the key of the on-disk run cache
  and the identity under which an experiment plan holds a shared point once;
* plans round-trip through JSON (:meth:`RunPlan.to_dict` /
  :meth:`RunPlan.from_dict`), so a grid can be recorded next to its results
  and re-executed bit-for-bit later.

The points of a plan are independent by construction (each harness seeds its
own RNG streams from its parameters), which is what lets the
:class:`~repro.execution.executor.Executor` run them serially or in a
process pool with bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.simulation.config import SimulationParameters
from repro.simulation.scenarios.registry import UNIFORM_SCENARIO
from repro.simulation.scenarios.spec import ScenarioSpec, fold_overrides

__all__ = ["RunPlan", "RunPoint"]


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
    are folded into ``parameters`` at construction time
    (:func:`~repro.simulation.scenarios.spec.fold_overrides`, as
    :func:`~repro.simulation.scenarios.run_scenario` does), so the stored
    point is always the *effective* configuration and its hash cannot lie
    about what runs.

    ``label`` is a consumer-side tag (e.g. ``"1000/ums-direct"``) used for
    reporting; it does not participate in the content hash.
    """

    parameters: SimulationParameters
    scenario: ScenarioSpec = UNIFORM_SCENARIO
    label: Optional[str] = None

    def __post_init__(self) -> None:
        scenario, parameters = fold_overrides(self.scenario, self.parameters)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "parameters", parameters)

    # -------------------------------------------------------------- identity
    def content(self) -> Dict[str, Any]:
        """The hashed content: effective parameters and scenario."""
        return {
            "parameters": self.parameters.describe(),
            "scenario": self.scenario.to_dict(),
        }

    @property
    def content_hash(self) -> str:
        """Stable BLAKE2s hex digest of :meth:`content` (the cache key)."""
        return _stable_hash(self.content())

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
                   label=payload.get("label"))


@dataclass
class RunPlan:
    """An ordered, named list of :class:`RunPoint` entries."""

    name: str = "plan"
    points: List[RunPoint] = field(default_factory=list)

    # ------------------------------------------------------------------ build
    def add(self, parameters: SimulationParameters, *,
            scenario: ScenarioSpec = UNIFORM_SCENARIO,
            label: Optional[str] = None, **overrides: Any) -> RunPoint:
        """Append one point and return it.

        The spec's ``overrides`` are applied over ``parameters`` and keyword
        ``overrides`` (e.g. ``protocol="kademlia"``) win over both — exactly
        what ``run_scenario(scenario, parameters, **overrides)`` executes.
        """
        scenario, parameters = fold_overrides(scenario, parameters, **overrides)
        point = RunPoint(parameters=parameters, scenario=scenario, label=label)
        self.points.append(point)
        return point

    # ---------------------------------------------------------------- queries
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
            "points": [{"label": point.label,
                        "content_hash": point.content_hash,
                        "seed": point.parameters.seed}
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

