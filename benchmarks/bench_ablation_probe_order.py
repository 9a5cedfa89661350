"""Ablation — random vs fixed replica probe order in UMS.retrieve.

Random probing matches the independence assumption behind the Section 3.3
analysis; fixed-order probing can correlate with which replicas are stale.
The benchmark regenerates the ablation table and checks both configurations
stay within the Theorem 1 envelope.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_probe_order_ablation(benchmark, bench_scale, bench_seed,
                              bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["ablation-probe-order"], bench_scale,
                                seed=bench_seed, executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    rows = {row["x"]: row for row in table.rows}
    assert set(rows) == {"random", "fixed"}
    for row in rows.values():
        assert row["replicas inspected"] >= 1.0
        assert row["replicas inspected"] <= 10.0
        assert row["response time (s)"] > 0.0
    # Both orders probe close to one replica under the default (healthy) workload.
    assert rows["random"]["replicas inspected"] < 3.0
    assert rows["fixed"]["replicas inspected"] < 3.0
