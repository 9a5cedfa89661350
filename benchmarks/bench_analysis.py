"""Theorem 1 / Section 3.3 — expected number of retrieved replicas vs p_t.

Regenerates the cost-analysis table and validates it against an *empirical*
measurement: replicas of a key are selectively made stale so that the
probability of currency and availability equals the target p_t, and the
average number of replicas UMS actually probes is compared with the theory.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.core import analysis
from repro.experiments import figures


def measured_probe_count(pt: float, num_replicas: int = 10, queries: int = 300,
                         seed: int = 7) -> float:
    """Average number of replicas UMS probes when a fraction ``pt`` is current."""
    from repro.core.timestamps import Timestamp
    from repro.dht.storage import StoredValue

    cluster = Cluster.build(peers=64, replicas=num_replicas, seed=seed)
    ums = cluster.service("ums")
    rng = random.Random(seed)
    ums.insert("k", "v0")
    ums.insert("k", "v1")
    # Make exactly (1 - pt)·|Hr| replicas stale by rolling them back to the old
    # timestamp in place (bypassing reconciliation), so the probability of
    # currency and availability equals the target pt.
    stale_count = round((1.0 - pt) * num_replicas)
    for hash_fn in rng.sample(list(cluster.replication), stale_count):
        responsible = cluster.network.responsible_peer("k", hash_fn)
        stale = StoredValue(key="k", data="v0", timestamp=Timestamp("k", 1),
                            hash_name=hash_fn.name, point=hash_fn("k"))
        cluster.network.peer(responsible).store.put(stale, reconcile=False)
    total = 0
    for _ in range(queries):
        total += ums.retrieve("k").replicas_inspected
    return total / queries


def test_expected_retrievals_theory_table(benchmark, record_table):
    table = benchmark.pedantic(figures.expected_retrievals_table, rounds=1, iterations=1)
    record_table(table, benchmark)
    rows = {row["x"]: row for row in table.rows}
    # The paper's headline example: pt = 0.35 -> fewer than 3 retrieved replicas.
    assert rows[0.35]["E[X] (Eq. 1)"] < 3.0
    assert rows[0.35]["1/pt bound"] < 3.0
    # Theorem 1 bound holds on every row.
    for pt, row in rows.items():
        if pt > 0:
            assert row["E[X] (Eq. 1)"] <= 1.0 / pt + 1e-9


@pytest.mark.parametrize("pt", [0.3, 0.5, 0.8, 1.0])
def test_measured_probes_match_the_geometric_model(benchmark, pt):
    measured = benchmark.pedantic(lambda: measured_probe_count(pt), rounds=1, iterations=1)
    predicted = analysis.expected_probes(pt, 10)
    benchmark.extra_info["pt"] = pt
    benchmark.extra_info["measured_probes"] = measured
    benchmark.extra_info["predicted_probes"] = predicted
    # The empirical mean stays within the theorem's bound and close to theory.
    assert measured <= min(1.0 / pt, 10.0) + 0.75
    assert measured == pytest.approx(predicted, rel=0.35, abs=0.75)
