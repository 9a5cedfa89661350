"""Tests of the delta anti-entropy round (Cluster.sync_replicas).

The wire-efficiency layer's headline claim: one sync round heals diverged
replicas while shipping only the entries whose timestamp (or version)
advanced past the holder's summary, so a lightly-updated population costs a
small fraction of a full-state push.
"""

from __future__ import annotations

from trace_columns import record_columns

from repro.api.cluster import Cluster
from repro.core.replication import ReplicaSyncReport
from repro.dht.messages import MessageKind


def _stale_holder(cluster, key):
    """The peer holding ``key`` under the first replication hash."""
    hash_fn = cluster.replication.hashes[0]
    return hash_fn, cluster.network.responsible_peer(key, hash_fn)


def _stale_slots(cluster, key, holder):
    """How many of ``key``'s replicas live on ``holder``.

    An unreachable ``holder`` misses the update under *every* replication
    hash that routes ``key`` to it, so each collision is one more stale slot.
    """
    return sum(1 for hash_fn in cluster.replication
               if cluster.network.responsible_peer(key, hash_fn) == holder)


class TestSyncHeals:
    def test_lost_replica_is_reshipped(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            session.insert("k", {"v": 1})
        hash_fn, holder = _stale_holder(cluster, "k")
        cluster.network.peer(holder).store.delete(hash_fn.name, "k")

        report = cluster.sync_replicas()
        assert isinstance(report, ReplicaSyncReport)
        assert report.entries_shipped >= 1
        assert report.entries_applied >= 1
        restored = cluster.network.peer(holder).store.get(hash_fn.name, "k")
        assert restored is not None and restored.data == {"v": 1}

    def test_stale_replica_converges_to_the_newest_write(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            session.insert("k", {"v": 1})
            hash_fn, holder = _stale_holder(cluster, "k")
            session.insert("k", {"v": 2}, unreachable=frozenset({holder}))
        stale = cluster.network.peer(holder).store.get(hash_fn.name, "k")
        assert stale.data == {"v": 1}  # the update missed this holder

        cluster.sync_replicas()
        healed = cluster.network.peer(holder).store.get(hash_fn.name, "k")
        assert healed.data == {"v": 2}

    def test_consistent_population_ships_nothing(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            for index in range(20):
                session.insert(f"k{index}", {"n": index})
        report = cluster.sync_replicas()
        assert report.entries_shipped == 0
        assert report.entries_skipped == report.replica_slots
        assert report.delta_bytes == 0

    def test_second_round_ships_nothing(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            for index in range(20):
                session.insert(f"k{index}", {"n": index})
            expected = 0
            for index in range(3):
                key = f"k{index}"
                _hash_fn, holder = _stale_holder(cluster, key)
                session.insert(key, {"n": -index},
                               unreachable=frozenset({holder}))
                expected += _stale_slots(cluster, key, holder)
        first = cluster.sync_replicas()
        assert first.entries_shipped == expected >= 3
        second = cluster.sync_replicas()
        assert second.entries_shipped == 0

    def test_brk_equal_versions_are_not_reshipped(self):
        # BRICKS reconciliation is last-writer-wins on equal versions, so a
        # naive "is newer" filter would re-ship a consistent population
        # forever; the token filter (strictly-greater) must not.
        cluster = Cluster.build(peers=24, replicas=4, seed=11, service="brk")
        with cluster.session() as session:
            for index in range(10):
                session.insert(f"k{index}", {"n": index})
        report = cluster.sync_replicas()
        assert report.entries_shipped == 0

    def test_explicit_key_subset_limits_the_round(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            session.insert("a", {"v": 1})
            session.insert("b", {"v": 1})
        for key in ("a", "b"):
            hash_fn, holder = _stale_holder(cluster, key)
            cluster.network.peer(holder).store.delete(hash_fn.name, key)
        report = cluster.sync_replicas(["a"])
        assert report.keys == 1
        assert report.entries_shipped == 1
        hash_fn, holder = _stale_holder(cluster, "b")
        assert cluster.network.peer(holder).store.get(hash_fn.name, "b") is None


class TestDeltaEfficiency:
    def test_ten_percent_update_transfers_under_fifteen_percent(self):
        """The acceptance pin: 10% of keys updated behind one stale holder
        each; the delta round must move <= 15% of the full-state bytes."""
        cluster = Cluster.build(peers=32, replicas=5, seed=2007)
        keys = [f"key-{index:03d}" for index in range(100)]
        with cluster.session() as session:
            for key in keys:
                session.insert(key, {"k": key, "rev": 0})
            stale = 0
            for key in keys[:10]:
                _hash_fn, holder = _stale_holder(cluster, key)
                session.insert(key, {"k": key, "rev": 1},
                               unreachable=frozenset({holder}))
                stale += _stale_slots(cluster, key, holder)

        report = cluster.sync_replicas()
        assert report.keys == 100
        assert report.replica_slots == 500
        # Exactly the stale slots receive data (>= one per updated key; an
        # unreachable holder may hold a key under more than one hash)...
        assert report.entries_shipped == stale >= 10
        assert report.entries_applied == stale
        # ...and the whole round (summaries + deltas) stays under the bar.
        assert report.transfer_ratio <= 0.15
        assert report.transfer_bytes <= 0.15 * report.full_bytes
        assert report.entries_shipped <= 0.15 * report.replica_slots

    def test_report_dict_carries_the_ratio(self):
        cluster = Cluster.build(peers=16, replicas=3, seed=3)
        with cluster.session() as session:
            session.insert("k", {"v": 1})
        snapshot = cluster.sync_replicas().to_dict()
        assert snapshot["transfer_bytes"] == \
            snapshot["summary_bytes"] + snapshot["delta_bytes"]
        assert 0.0 <= snapshot["transfer_ratio"] <= 1.0

    def test_trace_records_summary_and_delta_messages(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=11)
        with cluster.session() as session:
            session.insert("k", {"v": 1})
        hash_fn, holder = _stale_holder(cluster, "k")
        cluster.network.peer(holder).store.delete(hash_fn.name, "k")

        columns = record_columns(cluster.network)
        trace = cluster.network.new_trace()
        report = cluster.replication.sync_replicas(cluster.network,
                                                   trace=trace)
        kinds = [message.kind for message in columns.messages]
        assert MessageKind.SYNC_SUMMARY in kinds
        assert MessageKind.SYNC_DELTA in kinds
        assert sum(message.size_bytes for message in columns.messages) == \
            report.transfer_bytes == trace.total_bytes

    def test_sync_draws_no_randomness(self):
        # Interleaving sync rounds with a seeded workload must not disturb
        # the workload's RNG streams: same seed, same post-sync behaviour.
        def run(with_sync):
            cluster = Cluster.build(peers=24, replicas=4, seed=11)
            with cluster.session() as session:
                for index in range(10):
                    session.insert(f"k{index}", {"n": index})
                if with_sync:
                    cluster.sync_replicas()
                return [session.retrieve(f"k{index}").trace.message_count
                        for index in range(10)]

        assert run(with_sync=False) == run(with_sync=True)
