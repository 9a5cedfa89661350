"""Figure 12 — response time vs frequency of updates (UMS only).

The paper's finding: more frequent updates shrink the window during which
replicas can be missing or stale, raising the probability of currency and
availability, so UMS retrieves fewer replicas and responds faster.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure12_response_time_vs_update_frequency(benchmark, bench_scale, bench_seed,
                                                    bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["figure-12"], bench_scale, seed=bench_seed,
                                executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    assert set(table.series) == {"UMS-Direct", "UMS-Indirect"}
    direct = table.series_values("UMS-Direct")
    indirect = table.series_values("UMS-Indirect")

    # Response time does not increase with the update frequency: the most
    # frequently updated configuration is at least as fast as the least
    # frequently updated one for both variants.
    assert direct[-1] <= direct[0] * 1.15
    assert indirect[-1] <= indirect[0] * 1.15
    # UMS-Direct stays at or below UMS-Indirect on average.
    assert sum(direct) / len(direct) <= sum(indirect) / len(indirect) * 1.05
