"""Ablation — every overlay under the same UMS workload.

The paper implements UMS/KTS on Chord and argues (Section 4.2.1) that the
design carries over to any DHT providing lookup and responsibility
notifications.  This ablation runs the same workload over every overlay in
the overlay table (Chord, CAN, Kademlia): the currency guarantees are identical,
only the routing cost differs (O(log n) for Chord/Kademlia, O(d·n^(1/d)) for
CAN).
"""

from __future__ import annotations

from repro.dht.registry import OVERLAYS
from repro.experiments.figures import run_experiments


def test_overlay_ablation(benchmark, bench_scale, bench_seed,
                          bench_executor, record_table):
    (table,) = benchmark.pedantic(
        lambda: run_experiments(["ablation-overlay"], bench_scale,
                                seed=bench_seed, executor=bench_executor),
        rounds=1, iterations=1)
    record_table(table, benchmark)

    rows = {row["x"]: row for row in table.rows}
    assert set(rows) == set(OVERLAYS)
    for row in rows.values():
        assert row["messages"] > 0
        assert row["response time (s)"] > 0
        # Every query found a replica and the vast majority were certified current.
        assert row["currency rate"] >= 0.8
