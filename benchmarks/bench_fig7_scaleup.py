"""Figure 7 — response time vs number of peers (wide-area simulation).

Runs the Table 1 workload over the peer-count sweep for BRK, UMS-Indirect and
UMS-Direct, and checks the paper's claims: response time grows slowly
(logarithmically) with the number of peers and UMS dominates BRK.

The sweep runs once per overlay in ``bench_overlays`` (default: a Chord
series and a Kademlia series; set ``REPRO_BENCH_OVERLAYS`` to change it), so
the same cost curves exist for every registered routing substrate.
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure7_response_time_vs_peers(benchmark, bench_scale, bench_seed,
                                        bench_overlays, bench_executor,
                                        record_table):
    def run():
        return {overlay: run_experiments(["figure-7"], bench_scale, seed=bench_seed,
                                         protocol=overlay, executor=bench_executor)[0]
                for overlay in bench_overlays}

    tables = benchmark.pedantic(run, rounds=1, iterations=1)

    for overlay in bench_overlays:
        table = tables[overlay]
        record_table(table, benchmark)

        peers = table.x_values()
        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        indirect = table.series_values("UMS-Indirect")

        # Ordering: UMS-Direct <= UMS-Indirect < BRK at every population size.
        for d, i, b in zip(direct, indirect, brk):
            assert d < b, overlay
            assert i < b, overlay
        assert sum(direct) / len(direct) <= sum(indirect) / len(indirect), overlay

        # Sub-linear growth: when the sweep spans >= 4x in population, BRK's
        # response time must grow far less than proportionally (logarithmic
        # routing — on Kademlia exactly as on Chord).  The tiny profile's
        # 2-point sweep is too narrow for a meaningful growth check.
        if peers[-1] / peers[0] >= 4:
            assert brk[-1] / brk[0] < 2.0, overlay
