"""Tests for the overlay table and the one lookup of every name table."""

from __future__ import annotations

import random
import re

import pytest

from repro.api.services import SERVICES, create_service
from repro.dht import registry
from repro.dht.can import CanSpace
from repro.dht.chord import ChordRing
from repro.dht.kademlia import KademliaOverlay
from repro.dht.network import DHTNetwork
from repro.simulation.config import SimulationParameters
from repro.simulation.scenarios import (
    ARCHETYPES,
    SCENARIOS,
    build_arrivals,
    build_fault,
    build_popularity,
    build_profile,
    run_scenario,
)
from repro.simulation.scenarios.arrivals import ARRIVAL_MODELS
from repro.simulation.scenarios.faults import FAULT_PROFILES
from repro.simulation.scenarios.popularity import POPULARITY_MODELS

#: Every name table: (table, the word its error uses, its public resolver).
NAME_TABLES = {
    "overlays": (registry.OVERLAYS, "protocol", registry.create_overlay),
    "services": (SERVICES, "service",
                 lambda name: create_service(name, network=None, replication=None)),
    "scenarios": (SCENARIOS, "scenario", run_scenario),
    "popularity": (POPULARITY_MODELS, "popularity model",
                   lambda name: build_popularity({"model": name})),
    "arrivals": (ARRIVAL_MODELS, "arrival model",
                 lambda name: build_arrivals({"model": name})),
    "faults": (FAULT_PROFILES, "fault kind", lambda name: build_fault({"kind": name})),
    "archetypes": (ARCHETYPES, "archetype",
                   lambda name: build_profile({"archetype": name})),
}


@pytest.mark.parametrize("table_name", sorted(NAME_TABLES))
@pytest.mark.parametrize("shape", ["unknown", "other-case"])
def test_an_unknown_name_is_named_and_every_known_name_listed(table_name, shape):
    table, what, resolve = NAME_TABLES[table_name]
    # Names match exactly: a known name in another case is unknown too.
    name = "black-friday" if shape == "unknown" else min(table).upper()
    with pytest.raises(ValueError) as raised:
        resolve(name)
    message = str(raised.value)
    assert message.startswith(f"unknown {what} {name!r}; known: ")
    listed = re.findall(r"'([^']*)'", message.split("; known: ", 1)[1])
    assert listed == sorted(table)


class TestBuiltins:
    def test_builtin_overlays_are_registered(self):
        assert {"chord", "can", "kademlia"} <= set(registry.OVERLAYS)

    @pytest.mark.parametrize("name, expected_type", [
        ("chord", ChordRing),
        ("can", CanSpace),
        ("kademlia", KademliaOverlay),
    ])
    def test_create_overlay_builds_the_right_type(self, name, expected_type):
        overlay = registry.create_overlay(name, bits=16, rng=random.Random(1))
        assert isinstance(overlay, expected_type)
        assert overlay.bits == 16

    def test_overlay_specific_extras_are_forwarded(self):
        can = registry.create_overlay("can", bits=16, dimensions=4)
        assert can.dimensions == 4
        kademlia = registry.create_overlay("kademlia", bits=16, k=5)
        assert kademlia.k == 5

    def test_unknown_overlay_raises_with_the_known_names(self):
        with pytest.raises(ValueError, match="chord"):
            registry.create_overlay("pastry")
        assert "pastry" not in registry.OVERLAYS


BUILTIN_CLASSES = {"chord": ChordRing, "can": CanSpace,
                   "kademlia": KademliaOverlay}


class TestOneClassPerOverlay:
    # Each built-in overlay is one class with plain-list state, so every
    # identifier width, either side of a machine word, builds that class.
    @pytest.mark.parametrize("bits", [8, 32, 64, 65, 160])
    @pytest.mark.parametrize("name", sorted(BUILTIN_CLASSES))
    def test_every_width_builds_the_one_class(self, name, bits):
        overlay = registry.create_overlay(name, bits=bits, rng=random.Random(1))
        assert type(overlay) is BUILTIN_CLASSES[name]
        assert overlay.bits == bits
        overlay.add_node((1 << bits) - 1)
        assert overlay.responsible_for(0) == (1 << bits) - 1

    @pytest.mark.parametrize("name", sorted(BUILTIN_CLASSES))
    def test_protocol_name_is_the_class_name(self, name):
        # The server's info reply and the adversary tables read this name.
        overlay = registry.create_overlay(name, rng=random.Random(1))
        assert overlay.protocol_name == BUILTIN_CLASSES[name].__name__

    def test_create_overlay_takes_no_representation(self):
        with pytest.raises(TypeError, match="representation"):
            registry.create_overlay("chord", representation="object")

    def test_network_takes_no_representation(self):
        with pytest.raises(TypeError, match="representation"):
            DHTNetwork.build(4, protocol="chord", representation="object")

    def test_the_benchmark_alias_is_the_chord_ring_and_stays_private(self):
        import repro.dht
        from repro.dht.columnar import ColumnarChordRing

        assert ColumnarChordRing is ChordRing
        assert "ColumnarChordRing" not in repro.dht.__all__
        assert not hasattr(repro.dht, "ColumnarChordRing")


class TestRuntimeRegistration:
    @pytest.fixture
    def custom_overlay(self):
        def build(*, bits, stabilization_interval, rng, **extra):
            return ChordRing(bits=bits, stabilization_interval=0.0, rng=rng)

        registry.OVERLAYS["test-custom"] = build
        yield "test-custom"
        del registry.OVERLAYS["test-custom"]

    def test_registered_overlay_is_creatable(self, custom_overlay):
        overlay = registry.create_overlay(custom_overlay, bits=16)
        assert isinstance(overlay, ChordRing)
        assert overlay.stabilization_interval == 0.0

    def test_network_layer_resolves_runtime_overlays(self, custom_overlay):
        network = DHTNetwork.build(8, protocol=custom_overlay, seed=1)
        assert network.size == 8

    def test_simulation_parameters_accept_runtime_overlays(self, custom_overlay):
        parameters = SimulationParameters.quick(protocol=custom_overlay)
        assert parameters.protocol == custom_overlay


class TestValidationWiring:
    def test_simulation_parameters_reject_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            SimulationParameters.quick(protocol="pastry")

    def test_network_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            DHTNetwork(protocol="pastry")
