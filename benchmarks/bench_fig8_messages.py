"""Figure 8 — communication cost (total messages per query) vs number of peers.

Runs the Figure 7 sweep (served by the session's run cache when the Figure 7
benchmark ran first), with its byte-denominated twin in the same plan, and
checks that BRK pays roughly |Hr| lookups per query while UMS needs only
the KTS lookup plus a couple of replica probes.

One series per overlay in ``bench_overlays`` (default: Chord and Kademlia;
``REPRO_BENCH_OVERLAYS`` selects others).
"""

from __future__ import annotations

from repro.experiments.figures import run_experiments


def test_figure8_messages_vs_peers(benchmark, bench_scale, bench_seed, bench_executor,
                                   bench_overlays, record_table, record_cost_json):
    def run():
        return {overlay: run_experiments(["figure-8", "figure-8-bytes"], bench_scale,
                                         seed=bench_seed, protocol=overlay,
                                         executor=bench_executor)
                for overlay in bench_overlays}

    tables = benchmark.pedantic(run, rounds=1, iterations=1)

    for overlay in bench_overlays:
        table, bytes_table = tables[overlay]
        record_table(table, benchmark)
        record_table(bytes_table, benchmark)
        record_cost_json(table.experiment_id, table, bytes_table,
                         scale=bench_scale, seed=bench_seed,
                         benchmark=benchmark)

        brk = table.series_values("BRK")
        direct = table.series_values("UMS-Direct")
        indirect = table.series_values("UMS-Indirect")

        peers = table.x_values()
        for d, i, b in zip(direct, indirect, brk):
            # BRK retrieves every replica: several times the traffic of UMS-Direct.
            assert b > 2.5 * d, overlay
            assert i <= b, overlay
        # Message counts grow slowly (logarithmic routing on Chord and
        # Kademlia); only meaningful when the sweep spans >= 4x in population.
        if peers[-1] / peers[0] >= 4:
            assert brk[-1] / brk[0] < 2.0, overlay

        # Bytes-per-op tells the same story: BRK's per-replica data replies
        # dominate, so its byte cost beats UMS-Direct's by a wide margin too.
        brk_bytes = bytes_table.series_values("BRK")
        direct_bytes = bytes_table.series_values("UMS-Direct")
        for d, b in zip(direct_bytes, brk_bytes):
            assert b > d > 0, overlay
