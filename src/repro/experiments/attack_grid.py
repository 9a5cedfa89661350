"""The attack grid: currency degradation under byzantine responsibles.

The paper's currency guarantee (Section 4) is proved for crash-stop faults:
responsibles may fail, but the ones that answer, answer honestly.  This
experiment measures what happens when that assumption breaks.  For every
overlay in the grid it sweeps the byzantine fraction — the share of peers
whose KTS replies are falsified by
:class:`repro.simulation.adversary.ByzantineTimestamps` — and records the
*certified currency rate* (queries the service certified current) against
the analytical guarantee, which is the honest-responsible baseline measured
at fraction 0 on the same seed and workload.

The degradation curve this produces is the repository's ``attack-degradation``
artifact: per overlay, certified currency stays *at* the guarantee up to a
threshold fraction (small byzantine sets often miss the responsibles of the
queried keys entirely) and falls below it past that threshold.  The artifact
reports the measured threshold per overlay, plus the detector's counters
(:class:`repro.core.detector.CrossCheckDetector` flags, ground-truth stale
results, certified-but-stale violations) for every grid point.

Everything runs through the unified execution layer: the grid is one
:class:`~repro.execution.RunPlan`, so ``--jobs N`` fans it out over a process
pool and a cache directory skips already-executed points — bit-identical to
a serial uncached run for the same seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.execution import Executor, RunPlan
from repro.simulation.config import SimulationParameters
from repro.simulation.results import RunResult
from repro.simulation.adversary import STRATEGIES, byzantine_scenario_spec

__all__ = [
    "DEFAULT_FRACTIONS",
    "DEFAULT_PROTOCOLS",
    "build_attack_plan",
    "default_attack_parameters",
    "degradation_report",
    "run_attack_grid",
]

#: Byzantine fractions swept by default; 0.0 (the honest baseline every
#: overlay's guarantee is anchored to) is always included.
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)

#: The built-in overlays; any name registered in :mod:`repro.dht.registry`
#: may be swept instead.
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("chord", "can", "kademlia")


def default_attack_parameters(seed: int = 2007) -> SimulationParameters:
    """The grid's default workload: small, fast, and staleness-prone.

    A deliberately repetitive workload — few keys, many queries, a high
    update rate — so that repeated queries of the same key straddle updates,
    which is exactly when a frozen (stale-replay) timestamp claim becomes
    observable.  One point runs in well under a second.
    """
    return SimulationParameters.quick(
        seed=seed, num_peers=120, num_keys=6, num_queries=60,
        duration_s=600.0, update_rate_per_hour=60.0)


def _normalise_fractions(fractions: Sequence[float]) -> List[float]:
    """Sorted, deduplicated fractions with the 0.0 baseline guaranteed."""
    cleaned = sorted(set(float(fraction) for fraction in fractions))
    for fraction in cleaned:
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"byzantine fraction {fraction} not in [0, 1)")
    if not cleaned or cleaned[0] != 0.0:
        cleaned.insert(0, 0.0)
    return cleaned


def build_attack_plan(parameters: SimulationParameters, *,
                      fractions: Sequence[float] = DEFAULT_FRACTIONS,
                      protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                      strategy: str = "stale-replay", lag: int = 1) -> RunPlan:
    """The grid as one :class:`RunPlan`: ``protocols × fractions`` points.

    Point order is protocols-major, fractions ascending within each overlay;
    labels are ``"<protocol>@f<fraction>"``.  Every overlay's sweep includes
    the 0.0 baseline point, which anchors its analytical guarantee in
    :func:`degradation_report`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    plan = RunPlan(name=f"attack-grid-{strategy}")
    for protocol in protocols:
        for fraction in _normalise_fractions(fractions):
            spec = byzantine_scenario_spec(fraction, strategy=strategy, lag=lag)
            plan.add(parameters, scenario=spec, protocol=protocol,
                     label=f"{protocol}@f{fraction:g}")
    return plan


def degradation_report(plan: RunPlan, results: Sequence[RunResult], *,
                       strategy: str) -> Dict[str, object]:
    """Fold grid results into the ``attack-degradation`` artifact.

    Per overlay: ``baseline_currency`` is the certified currency rate of the
    fraction-0 point (the analytical guarantee — the rate the paper's
    crash-stop analysis certifies on this workload), ``points`` the swept
    curve, and ``threshold`` the smallest byzantine fraction whose measured
    certified currency falls strictly below the guarantee (``None`` if the
    attack never lands).  ``results`` must be :meth:`Executor.run` output for
    ``plan``, in plan order.
    """
    if len(results) != len(plan):
        raise ValueError(f"expected {len(plan)} results, got {len(results)}")
    overlays: Dict[str, Dict[str, object]] = {}
    fractions: List[float] = []
    for point, result in zip(plan, results):
        protocol = point.parameters.protocol
        label = point.label or ""
        fraction = float(label.rsplit("@f", 1)[1]) if "@f" in label else 0.0
        entry = overlays.setdefault(protocol, {"points": []})
        summary = result.summary()
        entry["points"].append({
            "fraction": fraction,
            "currency": summary["currency_rate"],
            "true_currency": summary["true_currency_rate"],
            "stale_results": int(summary["stale_results"]),
            "violations": int(summary["currency_violations"]),
            "detected_lies": int(summary["detected_lies"]),
            "undetected_stale_rate": summary["undetected_stale_rate"],
        })
        if fraction not in fractions:
            fractions.append(fraction)
    for entry in overlays.values():
        points = sorted(entry["points"], key=lambda item: item["fraction"])
        baseline = points[0]["currency"]
        threshold: Optional[float] = None
        for item in points:
            item["guarantee"] = baseline
            if (threshold is None and item["fraction"] > 0.0
                    and item["currency"] < baseline):
                threshold = item["fraction"]
        entry["points"] = points
        entry["baseline_currency"] = baseline
        entry["threshold"] = threshold
    base_parameters = plan[0].parameters.describe() if len(plan) else {}
    return {
        "experiment": "attack-degradation",
        "strategy": strategy,
        "fractions": sorted(fractions),
        "protocols": sorted(overlays),
        "plan_hash": plan.plan_hash,
        "parameters": base_parameters,
        "overlays": overlays,
    }


def run_attack_grid(parameters: Optional[SimulationParameters] = None, *,
                    fractions: Sequence[float] = DEFAULT_FRACTIONS,
                    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                    strategy: str = "stale-replay", lag: int = 1,
                    executor: Optional[Executor] = None) -> Dict[str, object]:
    """Build the plan, execute it, and return the degradation artifact.

    ``executor`` defaults to a serial :class:`~repro.execution.Executor`;
    pass one built with ``jobs``/``cache_dir`` to parallelise or cache.
    """
    if parameters is None:
        parameters = default_attack_parameters()
    plan = build_attack_plan(parameters, fractions=fractions,
                             protocols=protocols, strategy=strategy, lag=lag)
    runner = executor if executor is not None else Executor()
    results = runner.run(plan)
    return degradation_report(plan, results, strategy=strategy)
