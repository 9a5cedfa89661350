"""Tests of the currency-service table (repro.api.services)."""

from __future__ import annotations

import pytest

from repro.api import Cluster
from repro.api.services import CurrencyService, SERVICES, create_service
from repro.core.baseline import BricksService
from repro.core.ums import UpdateManagementService


class TestBuiltinRegistrations:
    def test_ums_and_brk_ship_registered(self):
        assert set(SERVICES) >= {"ums", "brk"}

    def test_create_service_builds_the_right_types(self, small_stack):
        ums = create_service("ums", network=small_stack.network,
                             replication=small_stack.replication,
                             kts=small_stack.kts, seed=1)
        brk = create_service("brk", network=small_stack.network,
                             replication=small_stack.replication, seed=1)
        assert isinstance(ums, UpdateManagementService)
        assert isinstance(brk, BricksService)

    def test_both_builtins_satisfy_the_protocol(self, small_stack):
        assert isinstance(small_stack.service("ums"), CurrencyService)
        assert isinstance(small_stack.service("brk"), CurrencyService)

    def test_ums_requires_a_kts(self, small_stack):
        with pytest.raises(ValueError, match="KTS"):
            create_service("ums", network=small_stack.network,
                           replication=small_stack.replication, kts=None)

    def test_unknown_service_lists_the_registered_names(self, small_stack):
        with pytest.raises(ValueError, match="'ums'"):
            create_service("paxos", network=small_stack.network,
                           replication=small_stack.replication)


class TestRuntimeRegistration:
    def test_register_resolve_unregister_round_trip(self, small_stack):
        def build_alias(*, network, replication, kts, rng, **extra):
            return UpdateManagementService(network, kts, replication, rng=rng)

        SERVICES["ums-alias"] = build_alias
        try:
            service = create_service("ums-alias", network=small_stack.network,
                                     replication=small_stack.replication,
                                     kts=small_stack.kts, seed=5)
            service.insert("k", "v")
            assert service.retrieve("k").data == "v"
        finally:
            del SERVICES["ums-alias"]

    def test_registered_service_resolves_through_cluster_build(self):
        def build_alias(*, network, replication, kts, rng, **extra):
            return UpdateManagementService(network, kts, replication, rng=rng)

        SERVICES["ums-alias"] = build_alias
        try:
            cluster = Cluster.build(peers=24, replicas=4, service="ums-alias",
                                    seed=9)
            with cluster.session() as session:
                session.insert("k", "v")
                assert session.retrieve("k").is_current
        finally:
            del SERVICES["ums-alias"]


class TestSharedStack:
    def test_cluster_services_share_the_substrate(self):
        cluster = Cluster.build(peers=24, replicas=4, seed=3)
        ums, brk = cluster.service("ums"), cluster.service("brk")
        assert ums.network is brk.network is cluster.network
        assert ums.replication is brk.replication is cluster.replication
        assert cluster.service("ums") is ums
        assert cluster.service("brk") is brk
