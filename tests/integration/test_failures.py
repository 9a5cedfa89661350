"""Failure-injection integration tests (Section 4.2.2 scenarios)."""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.core import CounterInitialization
from repro.simulation.engine import Simulator
from repro.simulation.churn import ChurnProcess


class TestTimestampingResponsibleFailures:
    def test_failing_the_timestamping_responsible_does_not_block_updates(self, small_stack):
        small_stack.service("ums").insert("k", "v0")
        responsible = small_stack.kts.responsible_of_timestamping("k")
        small_stack.network.fail_peer(responsible)
        small_stack.network.join_peer()
        result = small_stack.service("ums").insert("k", "v1")
        assert result.fully_replicated
        retrieved = small_stack.service("ums").retrieve("k")
        assert retrieved.data == "v1"
        assert retrieved.is_current

    def test_repeated_failures_of_the_responsible_keep_timestamps_monotonic(self, small_stack):
        values = []
        for sequence in range(8):
            values.append(small_stack.service("ums").insert("k", sequence).timestamp.value)
            small_stack.network.fail_peer(small_stack.kts.responsible_of_timestamping("k"))
            small_stack.network.join_peer()
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_uncommitted_timestamp_is_repaired_by_recovery(self, small_stack):
        network, kts, ums = small_stack.network, small_stack.kts, small_stack.service("ums")
        ums.insert("k", "committed")
        # A timestamp is generated but never committed (e.g. the requesting
        # peer crashed before issuing the puts), then the responsible fails.
        orphan = kts.gen_ts("k")
        network.fail_peer(kts.responsible_of_timestamping("k"))
        # The new responsible rebuilds the counter from the replicas, which do
        # not know about the orphan timestamp...
        assert kts.last_ts("k").value < orphan.value
        # ...until the restarted peer reports its counter (recovery strategy).
        assert kts.recover("k", orphan.value)
        next_ts = ums.insert("k", "after-recovery").timestamp
        assert next_ts.value > orphan.value

    def test_periodic_inspection_fixes_counters_after_partial_loss(self, small_stack):
        network, kts, ums = small_stack.network, small_stack.kts, small_stack.service("ums")
        ums.insert("k", "v0")
        ums.insert("k", "v1")
        responsible = kts.responsible_of_timestamping("k")
        counter = kts.peer_state(responsible).vcs.get("k")
        counter.value = 0
        counter.last_known = None
        assert kts.inspect_counters(responsible) == 1
        assert kts.last_ts("k").value == 2


class TestCorrelatedBursts:
    """Correlated failure batches (the scenario engine's burst primitive).

    Unlike the one-at-a-time departures above, a burst takes several peers
    down at the *same* instant — including, in the worst case, the
    responsible of timestamping and every replica holder of a key at once.
    """

    def _burst_stack(self, *, num_peers=60, num_replicas=6, seed=2025):
        cluster = Cluster.build(peers=num_peers, replicas=num_replicas, seed=seed)
        churn = ChurnProcess(Simulator(), cluster.network, rate_per_s=0.0,
                             failure_rate=1.0, rng=random.Random(seed))
        return cluster, churn

    def _key_holders(self, cluster, key):
        holders = {cluster.network.responsible_peer(key, hash_fn)
                   for hash_fn in cluster.replication}
        holders.add(cluster.kts.responsible_of_timestamping(key))
        return holders

    def test_burst_sparing_one_replica_keeps_timestamps_strictly_monotonic(self):
        cluster, churn = self._burst_stack()
        values = []
        for sequence in range(6):
            values.append(cluster.service("ums").insert("k", sequence).timestamp.value)
            # One correlated burst: the timestamping responsible AND all but
            # one replica holder of "k" fail at the same instant (no
            # interleaved joins).  Direct counter initialisation rebuilds the
            # new responsible's counter from the surviving replica, so the
            # timestamps must keep strictly increasing.
            holders = self._key_holders(cluster, "k")
            survivor = max(holders - {cluster.kts.responsible_of_timestamping("k")})
            churn.fail_together(sorted(holders - {survivor}), rejoin=True)
        assert values == sorted(values)
        assert len(set(values)) == len(values)
        final = cluster.service("ums").insert("k", "final")
        assert final.timestamp.value > values[-1]

    def test_burst_on_responsible_and_all_replicas_keeps_timestamps_monotonic(self):
        cluster, churn = self._burst_stack()
        values = []
        for sequence in range(6):
            values.append(cluster.service("ums").insert("k", sequence).timestamp.value)
            # The worst case: the responsible AND every replica holder fail in
            # the same burst.  All state about "k" is gone, so the counter may
            # legitimately restart (the paper's guarantee needs one survivor:
            # with |Hr|+1 simultaneous failures there is no source for the old
            # value) — but the sequence must never go *backwards*.
            churn.fail_together(sorted(self._key_holders(cluster, "k")),
                                rejoin=True)
        assert values == sorted(values)
        # After the last burst a fresh insert must still yield a certified
        # current retrieval of the latest value.
        cluster.service("ums").insert("k", "final")
        result = cluster.service("ums").retrieve("k")
        assert result.is_current
        assert result.data == "final"

    def test_burst_losing_every_replica_is_not_found_until_rewritten(self):
        cluster, churn = self._burst_stack(num_replicas=4, seed=2026)
        cluster.service("ums").insert("k", "precious")
        churn.fail_together(sorted(self._key_holders(cluster, "k")), rejoin=True)
        result = cluster.service("ums").retrieve("k")
        assert not result.found
        restored = cluster.service("ums").insert("k", "restored")
        assert restored.fully_replicated
        assert cluster.service("ums").retrieve("k").data == "restored"

    def test_repeated_bursts_without_rejoin_keep_monotonicity(self):
        cluster, churn = self._burst_stack(num_peers=80, seed=2027)
        values = []
        for sequence in range(4):
            values.append(cluster.service("ums").insert("k", sequence).timestamp.value)
            holders = self._key_holders(cluster, "k")
            survivor = max(holders - {cluster.kts.responsible_of_timestamping("k")})
            churn.fail_together(sorted(holders - {survivor}), rejoin=False)
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_burst_events_are_recorded_as_simultaneous_failures(self):
        cluster, churn = self._burst_stack()
        cluster.service("ums").insert("k", "v0")
        executed = churn.fail_together(sorted(self._key_holders(cluster, "k")),
                                       rejoin=True)
        assert executed
        assert all(event.failed for event in executed)
        assert len({event.time for event in executed}) == 1
        assert churn.failure_count == len(executed)


class TestMassFailures:
    def test_data_survives_as_long_as_one_replica_does(self):
        cluster = Cluster.build(peers=60, replicas=10, seed=37)
        cluster.service("ums").insert("k", "precious")
        holders = sorted({cluster.network.responsible_peer("k", h) for h in cluster.replication})
        # Fail all but one replica holder.
        for holder in holders[:-1]:
            if cluster.network.is_alive(holder):
                cluster.network.fail_peer(holder)
                cluster.network.join_peer()
        result = cluster.service("ums").retrieve("k")
        assert result.found
        assert result.data == "precious"

    def test_total_replica_loss_is_reported_as_not_found(self):
        cluster = Cluster.build(peers=60, replicas=4, seed=41)
        cluster.service("ums").insert("k", "doomed")
        for hash_fn in cluster.replication:
            holder = cluster.network.responsible_peer("k", hash_fn)
            if cluster.network.is_alive(holder):
                cluster.network.fail_peer(holder)
        result = cluster.service("ums").retrieve("k")
        assert not result.found
        assert result.data is None

    def test_update_after_total_loss_restores_availability(self):
        cluster = Cluster.build(peers=60, replicas=4, seed=43)
        cluster.service("ums").insert("k", "lost")
        for hash_fn in cluster.replication:
            holder = cluster.network.responsible_peer("k", hash_fn)
            if cluster.network.is_alive(holder):
                cluster.network.fail_peer(holder)
        cluster.service("ums").insert("k", "restored")
        result = cluster.service("ums").retrieve("k")
        assert result.found
        assert result.data == "restored"
        assert cluster.service("ums").currency_probability("k") == pytest.approx(1.0)

    def test_heavy_failure_churn_with_indirect_initialisation(self):
        cluster = Cluster.build(peers=80, replicas=10, seed=47,
                                initialization=CounterInitialization.INDIRECT)
        rng = random.Random(47)
        for sequence in range(10):
            cluster.service("ums").insert("k", sequence)
            for _ in range(4):
                cluster.network.fail_peer(cluster.network.random_alive_peer())
                cluster.network.join_peer()
        result = cluster.service("ums").retrieve("k")
        assert result.found
        # The last write always reaches all current responsibles, so even under
        # heavy failures the returned value is the latest one.
        assert result.data == 9
