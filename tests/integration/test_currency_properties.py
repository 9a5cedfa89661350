"""Property-based integration tests of the currency guarantees.

The central invariants of the paper, checked under randomly generated
sequences of updates and churn events:

* timestamps generated for a key are strictly increasing (monotonicity,
  Theorem 2), as long as generated timestamps are committed to the DHT before
  the responsible of timestamping disappears;
* whenever at least one current replica is available, ``retrieve`` returns the
  value of the latest insert and flags it as current;
* ``retrieve`` never returns data older than what an earlier retrieve already
  observed (session monotonicity of the replicated key).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster
from repro.core import CounterInitialization

# One workload step: either an update, or a churn action.
steps = st.lists(
    st.sampled_from(["update", "leave", "join", "fail"]),
    min_size=1, max_size=40)


def apply_step(cluster, rng, step, key, sequence):
    if step == "update":
        cluster.service("ums").insert(key, sequence)
        return sequence + 1
    if step == "leave":
        cluster.network.leave_peer(cluster.network.random_alive_peer())
        cluster.network.join_peer()
    elif step == "fail":
        cluster.network.fail_peer(cluster.network.random_alive_peer())
        cluster.network.join_peer()
    elif step == "join":
        cluster.network.join_peer()
    return sequence


class TestCurrencyProperties:
    @given(script=steps, seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_retrieve_returns_latest_value_when_current_replicas_exist(self, script, seed):
        cluster = Cluster.build(peers=40, replicas=6, seed=seed)
        rng = random.Random(seed)
        sequence = 0
        for step in script:
            sequence = apply_step(cluster, rng, step, "prop-key", sequence)
        if sequence == 0:
            return  # no update ever happened
        result = cluster.service("ums").retrieve("prop-key")
        if cluster.service("ums").currency_probability("prop-key") > 0.0:
            assert result.found
            assert result.is_current
            assert result.data == sequence - 1
        elif result.found:
            assert result.data < sequence

    @given(script=steps, seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_insert_timestamps_are_strictly_increasing(self, script, seed):
        cluster = Cluster.build(peers=40, replicas=6, seed=seed)
        rng = random.Random(seed)
        values = []
        sequence = 0
        for step in script:
            before = sequence
            sequence = apply_step(cluster, rng, step, "mono-key", sequence)
            if sequence != before:
                values.append(cluster.kts.last_ts("mono-key").value)
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @given(script=steps, seed=st.integers(min_value=0, max_value=10_000),
           indirect=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_reads_never_go_backwards(self, script, seed, indirect):
        mode = CounterInitialization.INDIRECT if indirect else CounterInitialization.DIRECT
        cluster = Cluster.build(peers=40, replicas=6, seed=seed,
                                initialization=mode)
        rng = random.Random(seed)
        sequence = 0
        last_observed = -1
        for step in script:
            sequence = apply_step(cluster, rng, step, "session-key", sequence)
            result = cluster.service("ums").retrieve("session-key")
            if result.found:
                assert result.data >= last_observed
                last_observed = result.data

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_probe_count_respects_the_replica_bound(self, seed):
        cluster = Cluster.build(peers=40, replicas=8, seed=seed)
        rng = random.Random(seed)
        cluster.service("ums").insert("bound-key", "value")
        for _ in range(10):
            cluster.network.fail_peer(cluster.network.random_alive_peer())
            cluster.network.join_peer()
        result = cluster.service("ums").retrieve("bound-key")
        assert 1 <= result.replicas_inspected <= cluster.replication.factor
