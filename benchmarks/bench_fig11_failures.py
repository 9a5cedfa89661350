"""Figure 11 — response time vs failure rate.

The paper's findings: increasing the share of departures that are failures
degrades every algorithm (stale routing state, lost replicas), and at high
failure rates UMS-Direct converges towards UMS-Indirect because the direct
counter transfer can no longer happen.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure11_response_time_vs_failure_rate(benchmark, bench_scale, bench_seed,
                                                bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["figure-11"], bench_scale, seed=bench_seed,
                                executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    rates = table.x_values()
    brk = table.series_values("BRK")
    direct = table.series_values("UMS-Direct")
    indirect = table.series_values("UMS-Indirect")

    # Failures hurt: the highest failure rate is slower than the lowest for
    # UMS-Direct (which additionally loses its transferred counters).
    assert direct[-1] > direct[0]
    # UMS remains cheaper than BRK throughout the sweep.
    assert all(d < b for d, b in zip(direct, brk))
    # At high failure rates UMS-Direct approaches UMS-Indirect: the gap at the
    # top of the sweep is smaller (relatively) than at the bottom.
    low_gap = (indirect[0] - direct[0]) / max(indirect[0], 1e-9)
    high_gap = (indirect[-1] - direct[-1]) / max(indirect[-1], 1e-9)
    assert high_gap <= low_gap + 0.15
