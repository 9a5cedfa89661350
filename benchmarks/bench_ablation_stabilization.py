"""Ablation — Chord finger-table stabilisation interval.

The stabilisation interval controls how long failed peers linger in finger
tables; it is the mechanism behind Figure 11's failure sensitivity.  Longer
intervals mean more routing retries and timeouts under the same churn.
"""

from __future__ import annotations

from repro.experiments.figures import STABILIZATION_INTERVALS_S, run_experiments


def test_stabilization_interval_ablation(benchmark, bench_scale, bench_seed,
                                         bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["ablation-stabilization"], bench_scale,
                                seed=bench_seed, executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    response_times = table.series_values("response time (s)")
    messages = table.series_values("messages")
    assert table.x_values() == list(STABILIZATION_INTERVALS_S)
    assert (STABILIZATION_INTERVALS_S[0], STABILIZATION_INTERVALS_S[-1]) == (0.0, 600.0)
    # Perfectly fresh routing state (interval 0) is at least as fast as the
    # slowest-refresh configuration under a 50 % failure churn.
    assert response_times[0] <= response_times[-1]
    assert messages[0] <= messages[-1] * 1.05
