"""The inline random draws consume exactly the standard library's draws.

``ReplicationScheme.shuffled`` and ``DHTNetwork._resolve_origin`` call
``rng.getrandbits`` through the rejection loop of ``Random._randbelow``
instead of calling ``rng.shuffle`` and ``rng.choice``.  Those stdlib calls
stay the reference here: the same result, and the same generator state
after, for every seed — which is what keeps every seeded trace and pin.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replication import ReplicationScheme
from repro.dht.errors import EmptyNetworkError
from repro.dht.network import DHTNetwork

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: Live memberships at the rejection loop's edges: one member draws zero
#: bits, and 1 024 members draw 11 bits, so about half the draws are rejected.
MEMBERSHIPS = (1, 2, 3, 1023, 1024, 1025)


@lru_cache(maxsize=None)
def _scheme(factor: int) -> ReplicationScheme:
    return ReplicationScheme.create(factor, seed=factor)


@lru_cache(maxsize=None)
def _network(members: int) -> DHTNetwork:
    return DHTNetwork.build(members, seed=members)


@settings(max_examples=300, deadline=None)
@given(factor=st.integers(min_value=1, max_value=16), seed=SEEDS,
       calls=st.integers(min_value=1, max_value=4))
def test_shuffled_draws_what_rng_shuffle_draws(factor, seed, calls):
    scheme = _scheme(factor)
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(calls):
        expected = list(scheme.hashes)
        reference.shuffle(expected)
        assert scheme.shuffled(rng) == expected
        assert rng.getstate() == reference.getstate()


@settings(max_examples=300, deadline=None)
@given(members=st.sampled_from(MEMBERSHIPS), seed=SEEDS,
       calls=st.integers(min_value=1, max_value=8))
def test_a_random_origin_draws_what_rng_choice_draws(members, seed, calls):
    network = _network(members)
    network.rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(calls):
        assert network._resolve_origin(None) == reference.choice(network.protocol.nodes())
        assert network.rng.getstate() == reference.getstate()


def test_an_empty_network_refuses_before_it_draws():
    network = DHTNetwork.build(1, seed=3)
    (peer,) = network.alive_peer_ids()
    network.leave_peer(peer)
    state = network.rng.getstate()
    with pytest.raises(EmptyNetworkError):
        network._resolve_origin(None)
    assert network.rng.getstate() == state
