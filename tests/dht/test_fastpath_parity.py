"""Cross-overlay agreement of the three operation paths.

The network exposes one logical ``put_h``/``get_h`` semantics through three
code paths: the trace-free fast path (no trace attached, no hop
simulation), the traced ``route(...)`` walk, and the batched
``get_many``/``put_many`` entry points.  These property tests drive all three
against identically-seeded networks — including under interleaved joins,
normal leaves and failures — and assert they agree on the responsible peer,
on every operation result and on the final replica placement, for every
registered overlay.
"""

from __future__ import annotations

import random

import pytest

from repro.dht.hashing import HashFamily
from repro.dht.network import DHTNetwork

OVERLAYS = ("chord", "can", "kademlia")
PEERS = 32
ROUNDS = 6
KEYS = [f"key-{index}" for index in range(24)]


def _build(overlay: str) -> DHTNetwork:
    return DHTNetwork.build(PEERS, protocol=overlay, seed=21)


def _free_identifier(rng: random.Random, network: DHTNetwork) -> int:
    space = 1 << network.bits
    while True:
        candidate = rng.randrange(space)
        if not network.is_alive(candidate) and candidate not in network.protocol:
            return candidate


def _state_snapshot(network: DHTNetwork):
    """Replica placement across all live peers, in a comparable form."""
    snapshot = {}
    for peer_id in network.alive_peer_ids():
        store = network.peer(peer_id).store
        snapshot[peer_id] = sorted(
            (entry.hash_name, entry.key, entry.data, entry.version)
            for entry in store.values())
    return snapshot


@pytest.mark.parametrize("overlay", OVERLAYS)
def test_fastpath_traced_and_batched_agree_under_churn(overlay):
    fast_net = _build(overlay)
    traced_net = _build(overlay)
    batch_net = _build(overlay)
    fns = HashFamily(bits=32, seed=8).sample_many(3)
    churn_rng = random.Random(99)

    for round_index in range(ROUNDS):
        networks = (fast_net, traced_net, batch_net)
        origin = min(fast_net.alive_peer_ids())
        version = round_index + 1

        # --- writes: untraced singles vs traced singles vs one batch --------
        fast_accepted = [fast_net.put(key, fn, {"round": round_index},
                                      version=version, origin=origin)
                         for key in KEYS for fn in fns]
        traced_accepted = []
        for key in KEYS:
            for fn in fns:
                trace = traced_net.new_trace()
                traced_accepted.append(
                    traced_net.put(key, fn, {"round": round_index},
                                   version=version, origin=origin, trace=trace))
                assert trace.message_count > 0
        batch_accepted = batch_net.put_many(
            [(key, fn, {"round": round_index}, None, version)
             for key in KEYS for fn in fns], origin=origin)
        assert fast_accepted == traced_accepted == batch_accepted

        # --- the three paths agree on the responsible of every key ---------
        for key in KEYS:
            for fn in fns:
                fast = fast_net.lookup(key, fn, origin=origin)
                trace = traced_net.new_trace()
                routed = traced_net.lookup(key, fn, origin=origin, trace=trace)
                assert fast.responsible == routed.responsible
                assert fast.responsible == fast_net.responsible_peer(key, fn)
                assert routed.route.path[-1] == routed.responsible
                assert fast.point == routed.point

        # --- reads: untraced singles vs traced singles vs one batch --------
        requests = [(key, fn) for key in KEYS for fn in fns]
        batch_results = batch_net.get_many(requests, origin=origin)
        for (key, fn), batched in zip(requests, batch_results):
            fast_entry = fast_net.get(key, fn, origin=origin)
            trace = traced_net.new_trace()
            traced_entry = traced_net.get(key, fn, origin=origin, trace=trace)
            values = {entry.data["round"] if entry else None
                      for entry in (fast_entry, traced_entry, batched)}
            assert len(values) == 1, (key, fn.name, values)

        # --- identical replica placement on all three networks -------------
        fast_state = _state_snapshot(fast_net)
        assert fast_state == _state_snapshot(traced_net)
        assert fast_state == _state_snapshot(batch_net)

        # --- interleaved churn, identical on the three networks ------------
        before = fast_net.protocol.version
        if round_index % 3 == 0:
            newcomer = _free_identifier(churn_rng, fast_net)
            for network in networks:
                network.join_peer(newcomer)
        elif round_index % 3 == 1:
            leaver = churn_rng.choice(sorted(fast_net.alive_peer_ids()))
            for network in networks:
                network.leave_peer(leaver)
        else:
            failed = churn_rng.choice(sorted(fast_net.alive_peer_ids()))
            for network in networks:
                network.fail_peer(failed)
        # The membership version is the cache invalidation key: every
        # overlay must advance it on churn.
        assert fast_net.protocol.version > before


@pytest.mark.parametrize("overlay", OVERLAYS)
def test_untraced_operations_preserve_rng_stream(overlay):
    """Random-origin resolution draws the same RNG stream on both paths."""
    fast_net = _build(overlay)
    traced_net = _build(overlay)
    fn = HashFamily(bits=32, seed=8).sample("hr-0")
    for index, key in enumerate(KEYS):
        fast_net.put(key, fn, index, version=1)          # random origin
        trace = traced_net.new_trace()
        traced_net.put(key, fn, index, version=1, trace=trace)
        assert fast_net.rng.getstate() == traced_net.rng.getstate()
    assert _state_snapshot(fast_net) == _state_snapshot(traced_net)


@pytest.mark.parametrize("overlay", OVERLAYS)
def test_version_counts_every_membership_change(overlay):
    network = _build(overlay)
    assert network.protocol.version == PEERS
    network.join_peer()
    network.leave_peer(network.random_alive_peer())
    network.fail_peer(network.random_alive_peer())
    assert network.protocol.version == PEERS + 3
