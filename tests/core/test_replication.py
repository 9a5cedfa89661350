"""Unit tests for the replication scheme (Hr)."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ReplicationConfigurationError
from repro.core.replication import ReplicationScheme
from repro.dht.hashing import HashFamily


def sampled_scheme(count, seed):
    """``count`` replication hash functions ``hr-0 ..`` of a seeded 32-bit family."""
    return ReplicationScheme(HashFamily(bits=32, seed=seed).sample_many(count))


class TestConstruction:
    def test_empty_scheme_rejected(self):
        with pytest.raises(ReplicationConfigurationError):
            ReplicationScheme([])

    def test_duplicate_names_rejected(self):
        family = HashFamily(bits=16, seed=3)
        first = family.sample("same")
        second = family.sample("same")
        with pytest.raises(ReplicationConfigurationError):
            ReplicationScheme([first, second])

    def test_same_seed_same_scheme(self):
        first = sampled_scheme(4, 9)
        second = sampled_scheme(4, 9)
        assert [fn("key") for fn in first] == [fn("key") for fn in second]


class TestAccess:
    def test_iteration_and_indexing(self):
        scheme = sampled_scheme(4, 5)
        assert [fn.name for fn in scheme] == [scheme[index].name for index in range(4)]

    def test_hashes_property_is_a_tuple(self):
        scheme = sampled_scheme(2, 6)
        assert isinstance(scheme.hashes, tuple)

    def test_functions_place_keys_differently(self):
        scheme = sampled_scheme(5, 7)
        points = {fn("shared-key") for fn in scheme}
        assert len(points) == 5

    def test_shuffled_is_a_permutation(self):
        scheme = sampled_scheme(6, 8)
        shuffled = scheme.shuffled(random.Random(1))
        assert sorted(fn.name for fn in shuffled) == sorted(scheme.names)

    def test_shuffled_varies_with_rng(self):
        scheme = sampled_scheme(8, 9)
        orders = {tuple(fn.name for fn in scheme.shuffled(random.Random(i))) for i in range(10)}
        assert len(orders) > 1
