"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.core import CounterInitialization
from repro.dht.hashing import HashFamily


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random source."""
    return random.Random(12345)


@pytest.fixture
def hash_family() -> HashFamily:
    """A small deterministic hash family (32-bit identifier space)."""
    return HashFamily(bits=32, seed=99)


@pytest.fixture
def small_stack():
    """A 32-peer Chord network with |Hr| = 6 and direct counter initialisation."""
    return Cluster.build(peers=32, replicas=6, seed=2024)


@pytest.fixture
def indirect_stack():
    """A 32-peer stack whose KTS uses the indirect initialisation algorithm."""
    return Cluster.build(peers=32, replicas=6, seed=2024,
                         initialization=CounterInitialization.INDIRECT)


@pytest.fixture
def can_stack():
    """A CAN-based stack (smaller population; CAN lookups are linear scans)."""
    return Cluster.build(peers=24, replicas=5, seed=77, protocol="can")
