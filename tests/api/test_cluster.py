"""Tests of the Cluster builder and Session handles (repro.api.cluster)."""

from __future__ import annotations

import hashlib
import random

import pytest
from trace_columns import record_columns

from repro.api import Cluster, Consistency
from repro.core import CounterInitialization


class TestClusterBuild:
    def test_build_wires_the_whole_stack(self):
        cluster = Cluster.build(peers=24, replicas=5, seed=11)
        assert cluster.size == 24
        assert cluster.replication.factor == 5
        assert cluster.kts.network is cluster.network
        assert cluster.kts.replication is cluster.replication
        assert cluster.service("ums").kts is cluster.kts
        assert cluster.service_name == "ums"

    def test_unknown_service_is_rejected(self):
        with pytest.raises(ValueError, match="unknown service"):
            Cluster.build(peers=8, service="paxos", seed=1)

    def test_unknown_protocol_is_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Cluster.build(peers=8, protocol="pastry", seed=1)

    def test_seed_and_rng_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Cluster.build(peers=8, seed=1, rng=random.Random(1))

    def test_initialization_mode_is_honoured(self):
        cluster = Cluster.build(peers=8, seed=1,
                                initialization=CounterInitialization.INDIRECT)
        assert cluster.kts.initialization == CounterInitialization.INDIRECT

    def test_probe_order_reaches_the_ums_service(self):
        cluster = Cluster.build(peers=8, seed=1, probe_order="fixed")
        assert cluster.service("ums").probe_order == "fixed"

    def test_probe_order_and_service_options_must_agree(self):
        with pytest.raises(ValueError, match="conflicts"):
            Cluster.build(peers=8, seed=1, probe_order="fixed",
                          service_options={"ums": {"probe_order": "random"}})
        cluster = Cluster.build(peers=8, seed=1, probe_order="fixed",
                                service_options={"ums": {"probe_order": "fixed"}})
        assert cluster.service("ums").probe_order == "fixed"

    def test_invalid_probe_order_fails_at_build_time(self):
        # Regression: the error must surface at build time (not at first
        # session), and even when the primary service never constructs UMS.
        with pytest.raises(ValueError, match="probe_order"):
            Cluster.build(peers=8, seed=1, service="brk",
                          probe_order="alphabetical")

    @pytest.mark.parametrize("protocol, digest", [
        ("chord", "aa7c93ebd9c5bd14935257c95b5595b813e4374d"),
        ("kademlia", "21c2985bb0ee432582681c05b0c3b8cc4cdd8078"),
        ("can", "9f83f155e522d6d22f3776c69c6fd8eb270d4174"),
    ], ids=["chord", "kademlia", "can"])
    def test_a_seed_pins_the_whole_stack(self, protocol, digest):
        """Peer ids, the Hr and h_ts parameters, the service seeds and rsp(k, h).

        The digests were taken when ``Cluster.build`` had a second
        construction path; a change of the draw order changes them.
        """
        cluster = Cluster.build(peers=32, replicas=6, seed=2024, protocol=protocol)
        network, ts_hash = cluster.network, cluster.kts.ts_hash
        parts = [sorted(network.alive_peer_ids()),
                 [(h.name, h.a, h.b, h.bits) for h in cluster.replication],
                 (ts_hash.name, ts_hash.a, ts_hash.b, ts_hash.bits),
                 [cluster.service(name).rng.getrandbits(64) for name in ("ums", "brk")],
                 [[network.responsible_peer(f"key-{i}", h) for h in cluster.replication]
                  for i in range(8)]]
        assert hashlib.sha1(repr(parts).encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("protocol", ["chord", "kademlia", "can"])
    def test_population_and_replication_factor(self, protocol):
        cluster = Cluster.build(peers=20, replicas=7, seed=1, protocol=protocol)
        assert cluster.size == cluster.network.size == 20
        assert cluster.replication.factor == 7
        assert len(set(cluster.replication.names)) == 7
        assert cluster.kts.ts_hash.name not in cluster.replication.names

    @pytest.mark.parametrize("protocol", ["chord", "kademlia", "can"])
    def test_same_seed_is_reproducible(self, protocol):
        first, second = (Cluster.build(peers=16, replicas=4, seed=99, protocol=protocol)
                         for _ in range(2))
        assert first.network.alive_peer_ids() == second.network.alive_peer_ids()
        assert [(h.a, h.b) for h in first.replication] == \
            [(h.a, h.b) for h in second.replication]
        for h_first, h_second in zip(first.replication, second.replication):
            assert first.network.responsible_peer("k", h_first) == \
                second.network.responsible_peer("k", h_second)

    def test_different_seeds_differ(self):
        first = Cluster.build(peers=16, seed=1)
        second = Cluster.build(peers=16, seed=2)
        assert first.network.alive_peer_ids() != second.network.alive_peer_ids()

    def test_ts_hash_is_distinct_from_replication_hashes(self, small_stack):
        assert small_stack.kts.ts_hash.name not in small_stack.replication.names

    def test_can_cluster_works_end_to_end(self, can_stack):
        can_stack.service("ums").insert("k", "payload")
        result = can_stack.service("ums").retrieve("k")
        assert result.data == "payload"
        assert result.is_current

    def test_services_are_cached_and_share_the_substrate(self):
        cluster = Cluster.build(peers=16, seed=2)
        assert cluster.service("ums") is cluster.service("ums")
        assert cluster.service() is cluster.service("ums")
        assert cluster.service("brk").network is cluster.service("ums").network

    def test_every_overlay_builds(self):
        from repro.dht.registry import OVERLAYS

        for protocol in sorted(OVERLAYS):
            cluster = Cluster.build(peers=12, replicas=3, protocol=protocol,
                                    seed=7)
            with cluster.session() as session:
                session.insert("k", {"overlay": protocol})
                assert session.retrieve("k").data == {"overlay": protocol}


class TestSession:
    @pytest.fixture
    def cluster(self):
        return Cluster.build(peers=32, replicas=6, seed=13)

    def test_context_manager_round_trip(self, cluster):
        with cluster.session() as session:
            session.insert("k", "v")
            result = session.retrieve("k")
        assert result.data == "v"
        assert result.is_current
        assert session.closed

    def test_closed_session_rejects_operations(self, cluster):
        session = cluster.session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.retrieve("k")
        with pytest.raises(RuntimeError, match="closed"):
            session.insert("k", "v")

    def test_session_tallies_operations_and_messages(self, cluster):
        with cluster.session() as session:
            first = session.insert("k", "v")
            second = session.retrieve("k")
            assert session.operations == 2
            assert session.messages_sent == (first.message_count
                                             + second.message_count)

    def test_origin_bound_session_uses_the_origin(self, cluster):
        origin = cluster.network.alive_peer_ids()[0]
        columns = record_columns(cluster.network)  # reads the hops' sources
        with cluster.session(origin) as session:
            session.insert("k", "v")
            result, trace = columns.run(session.retrieve, "k")
        assert result.found
        # Every routed lookup starts at the bound origin, so whenever hops
        # were recorded at all, some of them leave from the origin.
        hop_sources = {m.source for m in trace
                       if m.kind.value == "lookup-hop"}
        assert not hop_sources or origin in hop_sources

    def test_dead_origin_is_rejected_at_session_open(self, cluster):
        dead = cluster.network.random_alive_peer()
        cluster.network.leave_peer(dead)
        cluster.network.join_peer()
        with pytest.raises(ValueError, match="not a live member"):
            cluster.session(dead)

    def test_session_level_consistency_is_the_default(self, cluster):
        with cluster.session(consistency=Consistency.ANY) as session:
            session.insert("k", "v")
            result = session.retrieve("k")
            assert result.consistency == Consistency.ANY
            # An explicit per-call level overrides the session default.
            result = session.retrieve("k", consistency=Consistency.CURRENT)
            assert result.consistency == Consistency.CURRENT
            assert result.is_current

    def test_invalid_session_consistency_is_rejected(self, cluster):
        with pytest.raises(ValueError, match="consistency"):
            cluster.session(consistency="linearizable")

    def test_non_primary_service_session(self, cluster):
        with cluster.session(service="brk") as session:
            insert = session.insert("k", "v")
            assert insert.version == 1
            result = session.retrieve("k")
            assert result.data == "v"
            assert not result.is_current  # BRK can never certify

    def test_currency_probability_delegates_to_ums(self, cluster):
        with cluster.session() as session:
            session.insert("k", "v")
        assert cluster.currency_probability("k") == pytest.approx(1.0)
