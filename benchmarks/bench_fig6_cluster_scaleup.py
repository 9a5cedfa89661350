"""Figure 6 — response time vs number of peers on the 64-node cluster.

Regenerates the cluster scale-up experiment (LAN cost model, 10–64 peers) and
checks the paper's qualitative result: all three algorithms grow slowly with
the number of peers and UMS-Direct < UMS-Indirect < BRK.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure6_cluster_response_time(benchmark, bench_scale, bench_seed,
                                        bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["figure-6"], bench_scale, seed=bench_seed,
                                executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    brk = table.series_values("BRK")
    direct = table.series_values("UMS-Direct")
    indirect = table.series_values("UMS-Indirect")

    # UMS-Direct beats BRK at every population size; UMS-Indirect sits in between
    # on average (individual points may fluctuate with only 30 queries each).
    assert all(d < b for d, b in zip(direct, brk))
    if bench_scale != "tiny":
        # At the tiny scale the sweep is 2 points x 8 queries — too few
        # samples for the mean ordering to hold (UMS-Indirect's variance
        # spans BRK), so these two checks are asserted from "quick" up.
        assert sum(indirect) / len(indirect) < sum(brk) / len(brk)
        assert sum(direct) / len(direct) <= sum(indirect) / len(indirect)
    # Response times on the cluster stay in the paper's low-seconds range.
    assert max(brk) < 10.0
