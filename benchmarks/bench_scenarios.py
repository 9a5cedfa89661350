"""Scenario comparison benchmark — the what-if engine beyond the figures.

Materialises a scenario × overlay × service grid as a named
:class:`repro.execution.RunPlan` and executes it through the shared bench
executor (``REPRO_BENCH_JOBS`` parallelises it, bit-identically), records
the per-metric comparison tables (the same pivot ``repro scenario compare``
prints) under ``benchmarks/results/scenario-compare-*.md`` plus a JSON
artifact named after the plan, and asserts the qualitative claims the
scenario gallery in EXPERIMENTS.md documents:

* UMS certifies currency on every scenario, BRK never can;
* the lossy-network scenario is slower than the uniform baseline on every
  series (the degraded window covers half the queries);
* correlated failure bursts fire and are visible in the churn accounting.
"""

from __future__ import annotations

from repro.execution import Executor, RunPlan
from repro.experiments.reporting import comparison_tables
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import get_scenario, run_scenario

#: Scenario grid: the control, a skew regime, and two fault regimes.
SCENARIOS = ("uniform", "hotspot", "correlated-failures", "lossy-network")
SERVICES = (("ums", "ums-direct"), ("brk", "brk"))

SCALE_PARAMETERS = {
    "tiny": dict(num_peers=60, num_keys=5, duration_s=300.0, num_queries=6,
                 churn_rate_per_s=0.1),
    "quick": dict(num_peers=150, num_keys=10, duration_s=900.0,
                  num_queries=20, churn_rate_per_s=0.15),
    "paper": dict(num_peers=2000, num_keys=50, duration_s=10800.0,
                  num_queries=30, churn_rate_per_s=1.0),
}


def grid_plan(scale: str, seed: int, overlays) -> RunPlan:
    """The scenario × service × overlay grid, as one named run plan."""
    parameters = SCALE_PARAMETERS[scale]
    plan = RunPlan(name=f"scenario-grid-{scale}")
    for scenario in SCENARIOS:
        for service, algorithm in SERVICES:
            for protocol in overlays:
                plan.add(
                    SimulationParameters(seed=seed, **parameters),
                    scenario=get_scenario(scenario),
                    protocol=protocol, algorithm=algorithm,
                    label=f"{scenario}:{service}@{protocol}")
    return plan


def run_grid(plan: RunPlan, executor=None) -> list:
    """One summary record per scenario × service × overlay cell of ``plan``."""
    executor = executor if executor is not None else Executor()
    records = []
    for point, result in zip(plan, executor.run(plan)):
        scenario, label = point.label.split(":", 1)
        records.append((scenario, label, result.summary()))
    return records


def test_scenario_comparison_grid(benchmark, bench_scale, bench_seed,
                                  bench_overlays, bench_executor,
                                  record_table, record_plan_json):
    plan = grid_plan(bench_scale, bench_seed, bench_overlays)
    records = benchmark.pedantic(
        lambda: run_grid(plan, executor=bench_executor),
        rounds=1, iterations=1)
    tables = comparison_tables(records)
    for table in tables:
        record_table(table)
    record_plan_json(
        plan,
        {"records": [{"scenario": scenario, "series": label, **summary}
                     for scenario, label, summary in records]},
        benchmark)

    currency, response_time, messages = tables
    for protocol in bench_overlays:
        ums = f"ums@{protocol}"
        brk = f"brk@{protocol}"
        # UMS certifies currency on every scenario; BRK's version vectors
        # never can (is_current is the KTS timestamp certificate).
        assert all(rate > 0.8 for rate in currency.series_values(ums))
        assert all(rate == 0.0 for rate in currency.series_values(brk))
        # The lossy window covers half of each run, so it must be slower
        # than the uniform control for every series.
        by_scenario = dict(zip(response_time.x_values(),
                               response_time.series_values(ums)))
        assert by_scenario["lossy-network"] > by_scenario["uniform"]
        # BRK pays more messages than UMS on every scenario (retrieve-all
        # versus probe-until-current).
        assert all(b > u for u, b in zip(messages.series_values(ums),
                                         messages.series_values(brk)))


def test_correlated_failures_fire_and_land_in_churn_accounting(bench_scale,
                                                               bench_seed):
    parameters = SCALE_PARAMETERS[bench_scale]
    burst = run_scenario("correlated-failures",
                         SimulationParameters(seed=bench_seed, **parameters))
    control = run_scenario("uniform",
                           SimulationParameters(seed=bench_seed, **parameters))
    assert burst.fault_events == 2
    assert burst.failures > control.failures
