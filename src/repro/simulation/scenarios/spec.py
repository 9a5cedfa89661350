"""Declarative scenario specifications: dict-serialisable, replayable.

A :class:`ScenarioSpec` names a composition of the four scenario components
(popularity, arrivals, profile, faults) plus optional
:class:`~repro.simulation.config.SimulationParameters` overrides.  Specs are
plain data: ``to_dict``/``from_dict`` round-trip through JSON without loss,
which is what makes record/replay work — a recorded run file stores the spec
and the exact parameters, and replaying it reproduces the same
:class:`~repro.simulation.results.RunResult` bit-for-bit under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.simulation.config import SimulationParameters

__all__ = ["ScenarioSpec", "fold_overrides"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario, as pure configuration.

    Attributes
    ----------
    name:
        The registry name (``repro scenario run --scenario <name>``).
    description:
        One line shown by ``repro scenario list``.
    popularity / arrivals / profile:
        Component configurations dispatched by
        :func:`~repro.simulation.scenarios.popularity.build_popularity`,
        :func:`~repro.simulation.scenarios.arrivals.build_arrivals` and
        :func:`~repro.simulation.scenarios.profiles.build_profile`.  An empty
        dict selects each component's default (uniform / uniform / neutral).
    faults:
        Zero or more fault-profile configurations for
        :func:`~repro.simulation.scenarios.faults.build_fault`.
    overrides:
        ``SimulationParameters`` fields this scenario pins (e.g. a higher
        ``failure_rate``); explicit caller overrides still win over these
        (:func:`fold_overrides`).
    """

    name: str
    description: str = ""
    popularity: Mapping[str, Any] = field(default_factory=dict)
    arrivals: Mapping[str, Any] = field(default_factory=dict)
    profile: Mapping[str, Any] = field(default_factory=dict)
    faults: Tuple[Mapping[str, Any], ...] = ()
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        # Normalise to plain dicts / tuple so equality and serialisation are
        # independent of the caller's mapping types.
        object.__setattr__(self, "popularity", dict(self.popularity))
        object.__setattr__(self, "arrivals", dict(self.arrivals))
        object.__setattr__(self, "profile", dict(self.profile))
        object.__setattr__(self, "faults",
                           tuple(dict(fault) for fault in self.faults))
        object.__setattr__(self, "overrides", dict(self.overrides))

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dict; ``from_dict`` restores an equal spec."""
        return {
            "name": self.name,
            "description": self.description,
            "popularity": dict(self.popularity),
            "arrivals": dict(self.arrivals),
            "profile": dict(self.profile),
            "faults": [dict(fault) for fault in self.faults],
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys are rejected so typos in hand-written scenario files
        fail loudly instead of silently running the default workload.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario-spec keys {sorted(unknown)}; "
                             f"expected a subset of {sorted(known)}")
        if "name" not in payload:
            raise ValueError("a scenario spec requires a 'name'")
        faults: Sequence[Mapping[str, Any]] = payload.get("faults", ())
        return cls(name=payload["name"],
                   description=payload.get("description", ""),
                   popularity=payload.get("popularity", {}),
                   arrivals=payload.get("arrivals", {}),
                   profile=payload.get("profile", {}),
                   faults=tuple(faults),
                   overrides=payload.get("overrides", {}))

    # --------------------------------------------------------------- validation
    def validate(self) -> "ScenarioSpec":
        """Build every component once, raising on invalid configuration."""
        # Imported here to keep the spec module free of heavy dependencies.
        from repro.simulation.scenarios.engine import Scenario

        Scenario(self)
        return self


def fold_overrides(spec: ScenarioSpec, parameters: SimulationParameters,
                   **overrides: Any) -> Tuple[ScenarioSpec, SimulationParameters]:
    """The run ``spec`` and ``parameters`` make, as ``(spec, effective parameters)``.

    This is the one override rule: the spec's ``overrides`` apply over
    ``parameters`` and keyword ``overrides`` (e.g. ``protocol="kademlia"``,
    or the flags a user typed) win over both.  The returned spec has no
    overrides left, so recording the pair and replaying it cannot re-apply
    them over a pinned value.
    """
    merged = {**spec.overrides, **overrides}
    if merged:
        parameters = parameters.with_overrides(**merged)
    if spec.overrides:
        spec = replace(spec, overrides={})
    return spec, parameters
