"""Ablation — direct vs indirect counter initialisation (the paper's own ablation).

Measures the cost of the operation the two modes differ on: obtaining a
timestamp for a key right after its responsible of timestamping changed.

* After a **normal leave**, UMS-Direct has the counter transferred (O(1)
  maintenance messages) so the next ``gen_ts`` costs one lookup, while
  UMS-Indirect must read all |Hr| replicas.
* After a **failure**, both modes pay the indirect initialisation.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.core import CounterInitialization


def timestamp_messages_after_departure(initialization: str, *, fail: bool,
                                       seed: int = 5, num_replicas: int = 10) -> float:
    """Messages of the first gen_ts after the responsible of timestamping departs."""
    cluster = Cluster.build(peers=128, replicas=num_replicas, seed=seed,
                            initialization=initialization)
    cluster.service("ums").insert("k", "v0")
    responsible = cluster.kts.responsible_of_timestamping("k")
    if fail:
        cluster.network.fail_peer(responsible)
    else:
        cluster.network.leave_peer(responsible)
    cluster.network.join_peer()
    trace = cluster.network.new_trace()
    cluster.kts.gen_ts("k", trace=trace)
    return trace.message_count


def test_direct_transfer_makes_post_leave_timestamping_cheap(benchmark):
    direct = benchmark.pedantic(
        lambda: timestamp_messages_after_departure(CounterInitialization.DIRECT, fail=False),
        rounds=1, iterations=1)
    indirect = timestamp_messages_after_departure(CounterInitialization.INDIRECT, fail=False)
    benchmark.extra_info["direct_messages"] = direct
    benchmark.extra_info["indirect_messages"] = indirect
    # The indirect algorithm reads all |Hr| replicas: far more traffic.
    assert indirect > 2 * direct


def test_both_modes_pay_indirect_initialisation_after_a_failure(benchmark):
    direct = benchmark.pedantic(
        lambda: timestamp_messages_after_departure(CounterInitialization.DIRECT, fail=True),
        rounds=1, iterations=1)
    indirect = timestamp_messages_after_departure(CounterInitialization.INDIRECT, fail=True)
    benchmark.extra_info["direct_messages"] = direct
    benchmark.extra_info["indirect_messages"] = indirect
    # After a failure the direct mode has nothing to transfer from, so the two
    # costs are of the same order (the paper's explanation for Figure 11's
    # convergence at high failure rates).
    assert direct > 0.5 * indirect
