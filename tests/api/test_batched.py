"""Tests of the batched operations: semantics match per-key loops, cost shrinks."""

from __future__ import annotations

from functools import partial

import pytest
from trace_columns import record_columns

from repro.api import Cluster, Consistency

KEYS = [f"item-{index}" for index in range(10)]
#: Batch sizes of the amortisation tests.
SIZES = (8, 16, 32, 64)


@pytest.fixture(params=["ums", "brk"])
def service_name(request) -> str:
    return request.param


def build(service_name, protocol="chord"):
    return Cluster.build(peers=64, replicas=8, service=service_name, protocol=protocol,
                         seed=404)


@pytest.fixture
def cluster(service_name):
    return build(service_name)


def insert_messages(service_name, protocol, size):
    """(batch, per-key loop) messages of inserting ``size`` keys on twin clusters."""
    keys = [f"item-{index}" for index in range(size)]
    with build(service_name, protocol).session() as session:
        batch = session.insert_many((key, {"k": key}) for key in keys)
    assert batch.fully_replicated
    with build(service_name, protocol).session() as session:
        for key in keys:
            session.insert(key, {"k": key})
        return batch.message_count, session.messages_sent


def retrieve_messages(service_name, protocol, size):
    """(batch, per-key loop) messages of retrieving ``size`` inserted keys."""
    keys = [f"item-{index}" for index in range(size)]
    cluster = build(service_name, protocol)
    with cluster.session() as session:
        session.insert_many((key, {"k": key}) for key in keys)
    with cluster.session() as session:
        batch = session.retrieve_many(keys)
    assert batch.found_count == size
    assert batch.current_count == size or service_name == "brk"
    with cluster.session() as session:
        for key in keys:
            single = session.retrieve(key)
            assert single.is_current or service_name == "brk"
        return batch.message_count, session.messages_sent


def assert_amortised(messages, size):
    """A batch of ``size`` keys sends fewer messages than the per-key loop,
    saves no less than the next smaller batch, and over 25 % at 64 keys."""

    def savings(batch_size):
        batch, singles = messages(batch_size)
        assert batch < singles, batch_size
        return 1.0 - batch / singles

    saved = savings(size)
    if size > SIZES[0]:
        assert saved >= savings(SIZES[SIZES.index(size) - 1])
    if size == SIZES[-1]:
        assert saved > 0.25


class TestInsertMany:
    def test_batch_insert_matches_per_key_semantics(self, cluster):
        with cluster.session() as session:
            batch = session.insert_many((key, {"k": key}) for key in KEYS)
        assert batch.keys == tuple(KEYS)
        assert batch.fully_replicated
        for key in KEYS:
            with cluster.session() as session:
                assert session.retrieve(key).data == {"k": key}

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("protocol", ["chord", "kademlia"])
    def test_batch_insert_sends_fewer_messages_than_singles(self, service_name, protocol,
                                                            size):
        # The TSR exchanges amortise per responsible of timestamping and the
        # replica writes coalesce per holder.
        assert_amortised(partial(insert_messages, service_name, protocol), size)

    def test_batch_insert_timestamps_are_distinct_per_key(self):
        cluster = Cluster.build(peers=32, replicas=4, seed=1)
        with cluster.session() as session:
            batch = session.insert_many([(key, key) for key in KEYS])
        for result in batch:
            assert result.timestamp is not None
            assert result.timestamp.key == result.key

    def test_duplicate_keys_in_a_batch_behave_like_a_sequential_loop(self, cluster):
        # Regression: the last occurrence of a duplicated key must win (each
        # occurrence gets its own timestamp/version, like a per-key loop).
        with cluster.session() as session:
            batch = session.insert_many([("dup", {"v": 1}), ("other", {"v": 0}),
                                         ("dup", {"v": 2})])
            result = session.retrieve("dup")
        assert result.data == {"v": 2}
        assert result.found
        first_dup, _other, second_dup = batch.results
        if first_dup.timestamp is not None:  # UMS
            assert second_dup.timestamp.value > first_dup.timestamp.value
            assert result.is_current
        else:  # BRK
            assert second_dup.version == first_dup.version + 1
        for item in batch:
            assert item.replicas_written <= item.replicas_attempted
        assert batch.fully_replicated

    def test_batch_insert_unreachable_holders_are_skipped(self, cluster):
        key = KEYS[0]
        holders = {cluster.network.responsible_peer(key, h)
                   for h in cluster.replication}
        victim = next(iter(holders))
        with cluster.session() as session:
            batch = session.insert_many([(key, "v")],
                                        unreachable=frozenset({victim}))
        blocked = sum(1 for h in cluster.replication
                      if cluster.network.responsible_peer(key, h) == victim)
        assert batch[0].replicas_written == cluster.replication.factor - blocked


class TestRetrieveMany:
    def test_batch_retrieve_returns_the_same_data_as_singles(self, cluster):
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in KEYS)
            batch = session.retrieve_many(KEYS)
            singles = [session.retrieve(key) for key in KEYS]
        assert batch.keys == tuple(KEYS)
        for batched, single in zip(batch, singles):
            assert batched.data == single.data
            assert batched.found and single.found
            assert batched.is_current == single.is_current

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("protocol", ["chord", "kademlia"])
    def test_batch_retrieve_sends_fewer_messages_than_singles(self, service_name, protocol,
                                                              size):
        # The KTS lookups amortise per responsible of timestamping and the
        # replica probes of a round coalesce per destination peer.
        assert_amortised(partial(retrieve_messages, service_name, protocol), size)

    def test_ums_batch_certifies_currency(self):
        cluster = Cluster.build(peers=64, replicas=8, seed=404)
        with cluster.session() as session:
            session.insert_many((key, key) for key in KEYS)
            batch = session.retrieve_many(KEYS)
        assert batch.current_count == len(KEYS)
        assert batch.found_count == len(KEYS)

    def test_missing_keys_report_not_found(self, cluster):
        with cluster.session() as session:
            session.insert(KEYS[0], "v")
            batch = session.retrieve_many([KEYS[0], "never-inserted"])
        assert batch[0].found
        assert not batch[1].found
        assert batch[1].data is None

    def test_duplicate_keys_are_probed_once_and_fanned_out(self, cluster):
        # Regression: retrieve_many(['k','k']) must not probe twice per round
        # or report replicas_inspected beyond what a single retrieve reports.
        with cluster.session() as session:
            session.insert(KEYS[0], "v")
            batch = session.retrieve_many([KEYS[0], KEYS[0]])
            single = session.retrieve(KEYS[0])
        assert batch.data == ("v", "v")
        for result in batch:
            assert result.replicas_inspected == single.replicas_inspected
            assert result.replicas_inspected <= cluster.replication.factor

    def test_batch_results_share_the_batch_trace(self, cluster):
        with cluster.session() as session:
            session.insert_many((key, key) for key in KEYS)
            batch = session.retrieve_many(KEYS)
        for result in batch:
            assert result.trace is batch.trace

    def test_batch_retrieve_respects_max_probes(self):
        cluster = Cluster.build(peers=64, replicas=8, seed=404)
        with cluster.session() as session:
            session.insert_many((key, key) for key in KEYS)
            batch = session.retrieve_many(KEYS,
                                          consistency=Consistency.BEST_EFFORT,
                                          max_probes=2)
        for result in batch:
            assert result.replicas_inspected <= 2


class TestKtsBatching:
    def test_last_ts_many_matches_singles(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=5)
        with cluster.session() as session:
            session.insert_many((key, key) for key in KEYS)
        kts = cluster.kts
        batched = kts.last_ts_many(KEYS)
        for key in KEYS:
            assert batched[key] == kts.last_ts(key)

    def test_gen_ts_many_is_monotone_per_key(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=5)
        kts = cluster.kts
        first = kts.gen_ts_many(KEYS)
        second = kts.gen_ts_many(KEYS)
        for before, after in zip(first, second):
            assert after.key == before.key
            assert after.value > before.value

    def test_gen_ts_many_gives_duplicates_increasing_timestamps(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=5)
        timestamps = cluster.kts.gen_ts_many(["dup", "other", "dup"])
        assert timestamps[0].key == timestamps[2].key == "dup"
        assert timestamps[2].value > timestamps[0].value

    def test_batched_lookup_messages_scale_with_responsibles_not_keys(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=5)
        kts = cluster.kts
        with cluster.session() as session:
            session.insert_many((key, key) for key in KEYS)
        responsibles = {kts.responsible_of_timestamping(key) for key in KEYS}
        columns = record_columns(cluster.network)
        trace = cluster.network.new_trace()
        kts.last_ts_many(KEYS, trace=trace)
        kinds = columns.count_by_kind()
        from repro.dht.messages import MessageKind

        assert kinds[MessageKind.LAST_TS_REQUEST] == len(responsibles)
        assert kinds[MessageKind.LAST_TS_REPLY] == len(responsibles)


class TestNetworkBatching:
    def test_get_many_matches_single_gets(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=6)
        network, replication = cluster.network, cluster.replication
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in KEYS)
        requests = [(key, h) for key in KEYS for h in replication]
        batched = network.get_many(requests)
        for (key, hash_fn), entry in zip(requests, batched):
            single = network.get(key, hash_fn)
            assert (entry is None) == (single is None)
            if entry is not None:
                assert entry.data == single.data

    def test_get_many_routes_once_per_distinct_responsible(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=6)
        network, replication = cluster.network, cluster.replication
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in KEYS)
        requests = [(key, h) for key in KEYS for h in replication]
        responsibles = {network.responsible_peer(key, h) for key, h in requests}
        columns = record_columns(network)
        trace = network.new_trace()
        network.get_many(requests, trace=trace)
        from repro.dht.messages import MessageKind

        kinds = columns.count_by_kind()
        assert kinds[MessageKind.GET_REQUEST] == len(responsibles)
        assert kinds[MessageKind.GET_REPLY] == len(responsibles)

    def test_get_many_reply_bytes_scale_with_the_batch(self):
        cluster = Cluster.build(peers=48, replicas=4, seed=6)
        network, replication = cluster.network, cluster.replication
        with cluster.session() as session:
            session.insert_many((key, {"k": key}) for key in KEYS)
        requests = [(key, h) for key in KEYS for h in replication]
        columns = record_columns(network)
        trace = network.new_trace()
        network.get_many(requests, trace=trace)
        from repro.dht.messages import MessageKind

        reply_bytes = sum(m.size_bytes for m in columns
                          if m.kind == MessageKind.GET_REPLY)
        # One data payload per fetched entry: batching saves messages, not bytes.
        assert reply_bytes == network.message_sizes.data_bytes * len(requests)

    def test_put_many_unreachable_responsible_times_out_once(self):
        cluster = Cluster.build(peers=48, replicas=6, seed=7)
        network, replication = cluster.network, cluster.replication
        key = "target"
        victim = network.responsible_peer(key, replication[0])
        requests = [(key, h, "v", None, 1) for h in replication]
        trace = network.new_trace()
        accepted = network.put_many(requests, trace=trace,
                                    unreachable=frozenset({victim}))
        blocked = [index for index, h in enumerate(replication)
                   if network.responsible_peer(key, h) == victim]
        for index in blocked:
            assert not accepted[index]
        assert trace.timeout_count == 1
