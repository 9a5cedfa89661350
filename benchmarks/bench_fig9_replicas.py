"""Figure 9 — response time vs number of replicas (|Hr| sweep).

The paper's finding: the replica count strongly affects BRK, slightly affects
UMS-Indirect (only when a counter has to be re-initialised) and has no
systematic effect on UMS-Direct.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure9_response_time_vs_replicas(benchmark, bench_scale, bench_seed,
                                           bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["figure-9"], bench_scale, seed=bench_seed,
                                executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    replicas = table.x_values()
    brk = table.series_values("BRK")
    direct = table.series_values("UMS-Direct")

    # BRK response time scales roughly with |Hr| (it retrieves all replicas).
    brk_growth = brk[-1] / brk[0]
    span = replicas[-1] / replicas[0]
    assert brk_growth > 0.4 * span
    # UMS-Direct stays comparatively flat: its growth over the sweep is a small
    # fraction of BRK's (individual points fluctuate with 30 queries each, so
    # the comparison is relative rather than absolute).
    direct_growth = direct[-1] / direct[0]
    assert direct_growth < 0.5 * brk_growth
    # And UMS-Direct wins at every replica count.
    assert all(d < b for d, b in zip(direct, brk))
