"""Scenario comparison benchmark — the what-if engine beyond the figures.

Runs the ``scenario-compare-*`` records (scenarios × services × overlays,
one table per metric) through the shared bench executor, records their
tables under ``benchmarks/results/scenario-compare-*.md``, and asserts the
qualitative claims the scenario gallery in EXPERIMENTS.md documents:

* UMS certifies currency on every scenario, BRK never can;
* the lossy-network scenario is slower than the uniform baseline on every
  series (the degraded window covers half the queries);
* correlated failure bursts fire and are visible in the churn accounting.
"""

from __future__ import annotations

from repro.experiments.figures import SCALE_PROFILES, run_experiments
from repro.experiments.runner import select_experiments
from repro.simulation import SimulationParameters
from repro.simulation.scenarios import run_scenario


def test_scenario_comparison_grid(benchmark, bench_scale, bench_seed, bench_executor,
                                  record_table):
    tables = benchmark.pedantic(
        lambda: run_experiments(select_experiments(["scenario-compare"]), bench_scale,
                                seed=bench_seed, executor=bench_executor),
        rounds=1, iterations=1)
    for table in tables:
        record_table(table, benchmark)

    currency, response_time, messages = tables
    for protocol in ("chord", "kademlia"):
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


def test_correlated_failures_fire_and_land_in_churn_accounting(bench_scale, bench_seed):
    parameters = SCALE_PROFILES[bench_scale]["compare_workload"]
    burst = run_scenario("correlated-failures",
                         SimulationParameters(seed=bench_seed, **parameters))
    control = run_scenario("uniform",
                           SimulationParameters(seed=bench_seed, **parameters))
    assert burst.fault_events == 2
    assert burst.failures > control.failures
