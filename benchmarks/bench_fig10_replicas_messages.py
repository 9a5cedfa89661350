"""Figure 10 — communication cost vs number of replicas (|Hr| sweep)."""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure10_messages_vs_replicas(benchmark, bench_scale, bench_seed, bench_executor,
                                       record_table, record_cost_json):
    table, bytes_table = benchmark.pedantic(
        lambda: run_experiments(["figure-10", "figure-10-bytes"], bench_scale,
                                seed=bench_seed, executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)
    record_table(bytes_table, benchmark)
    record_cost_json(table.experiment_id, table, bytes_table,
                     scale=bench_scale, seed=bench_seed, benchmark=benchmark)

    replicas = table.x_values()
    brk = table.series_values("BRK")
    direct = table.series_values("UMS-Direct")

    # BRK's traffic grows (roughly) linearly with the replica count.
    brk_growth = brk[-1] / brk[0]
    assert brk_growth > 0.5 * (replicas[-1] / replicas[0])
    # UMS-Direct traffic is dominated by the KTS lookup + a couple of probes and
    # grows far more slowly than BRK's.
    assert direct[-1] / direct[0] < 0.5 * brk_growth
    assert all(d < b for d, b in zip(direct, brk))

    # The byte-denominated curve mirrors it: each extra replica costs BRK a
    # data-sized reply, so bytes grow with |Hr| and stay above UMS-Direct.
    brk_bytes = bytes_table.series_values("BRK")
    direct_bytes = bytes_table.series_values("UMS-Direct")
    assert brk_bytes[-1] > brk_bytes[0]
    assert all(d < b for d, b in zip(direct_bytes, brk_bytes))
