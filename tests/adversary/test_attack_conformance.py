"""Cross-overlay attack conformance (mirrors ``tests/dht/test_overlay_conformance.py``).

The eclipse attack must be *exact* to be a useful adversary model: for a
given overlay, population and target point, the captured set is a pure
function — no randomness, no order dependence — and each overlay gets the
capture-set construction that matches how its lookups actually converge
(Chord successor span, Kademlia XOR-closest, CAN ring neighbourhood).  The
suite also pins that whole attacked runs are reproducible on a 160-bit
identifier space, so adversarial results depend only on the seed and the
spec at any key width.
"""

from __future__ import annotations

import random

import pytest

from repro.api.cluster import Cluster
from repro.dht.registry import OVERLAYS
from repro.simulation import SimulationParameters
from repro.simulation.adversary import (
    CAPTURE_MODES,
    EclipseAttack,
    TimestampLiar,
    byzantine_scenario_spec,
    eclipse_capture_set,
)
from repro.simulation.scenarios import run_scenario

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")

#: overlay registry name -> expected auto capture mode.
EXPECTED_MODES = {
    "chord": "successor-span",
    "kademlia": "xor-closest",
    "can": "ring-neighbourhood",
}


def test_suite_covers_every_registered_overlay():
    # A newly registered overlay must be given a capture-set construction
    # (or the eclipse auto mode will refuse it) and added here.
    assert set(BUILTIN_OVERLAYS) == set(OVERLAYS)
    assert set(EXPECTED_MODES) == set(BUILTIN_OVERLAYS)
    assert set(EXPECTED_MODES.values()) == set(CAPTURE_MODES)


class TestCaptureSetExactness:
    ALIVE = (2, 10, 20, 250)
    BITS = 8  # space of 256 identifiers

    @pytest.mark.parametrize("mode,point,expected", [
        ("successor-span", 0, (2, 10)),        # clockwise from 0
        ("successor-span", 250, (2, 250)),     # wraps past the origin
        ("xor-closest", 0, (2, 10)),           # XOR distance == identifier
        ("xor-closest", 250, (20, 250)),       # high bits dominate XOR
        ("ring-neighbourhood", 0, (2, 250)),   # 250 is 6 away backwards
        ("ring-neighbourhood", 250, (2, 250)),
    ])
    def test_hand_computed_capture_sets(self, mode, point, expected):
        captured = eclipse_capture_set(mode, self.ALIVE, bits=self.BITS,
                                       point=point, count=2)
        assert captured == expected

    @pytest.mark.parametrize("mode", CAPTURE_MODES)
    def test_deterministic_and_order_independent(self, mode):
        forward = eclipse_capture_set(mode, self.ALIVE, bits=self.BITS,
                                      point=77, count=3)
        reversed_input = eclipse_capture_set(mode, tuple(reversed(self.ALIVE)),
                                             bits=self.BITS, point=77, count=3)
        assert forward == reversed_input
        assert forward == tuple(sorted(forward))
        assert len(forward) == 3

    @pytest.mark.parametrize("mode", CAPTURE_MODES)
    def test_count_clamps_to_the_population(self, mode):
        everyone = eclipse_capture_set(mode, self.ALIVE, bits=self.BITS,
                                       point=0, count=99)
        assert everyone == self.ALIVE
        assert eclipse_capture_set(mode, (), bits=self.BITS,
                                   point=0, count=3) == ()

    def test_unknown_mode_and_bad_count_rejected(self):
        with pytest.raises(ValueError, match="capture mode"):
            eclipse_capture_set("nope", self.ALIVE, bits=self.BITS,
                                point=0, count=1)
        with pytest.raises(ValueError, match="count"):
            eclipse_capture_set("xor-closest", self.ALIVE, bits=self.BITS,
                                point=0, count=0)


class _FakeSim:
    def __init__(self):
        self.scheduled = []
        self.now = 0.0

    def schedule(self, time, callback):
        self.scheduled.append((time, callback))

    def fire_all(self):
        for time, callback in self.scheduled:
            self.now = time
            callback()


class TestAffectedSetOnRealOverlays:
    @pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
    def test_auto_mode_resolves_per_overlay(self, protocol):
        cluster = Cluster.build(16, protocol=protocol,
                                rng=random.Random(99))
        attack = EclipseAttack()
        assert attack.capture_mode_for(cluster.network) == \
            EXPECTED_MODES[protocol]

    @pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
    def test_fire_corrupts_exactly_the_capture_set(self, protocol):
        cluster = Cluster.build(24, protocol=protocol,
                                rng=random.Random(7))
        network = cluster.network
        attack = EclipseAttack(point=0.25, count=5)
        sim, log = _FakeSim(), []
        attack.install(sim, network=network, cost_model=None,
                       rng=random.Random(1), duration_s=100.0, log=log,
                       cluster=cluster)
        sim.fire_all()
        expected = eclipse_capture_set(
            EXPECTED_MODES[protocol], network.alive_peer_ids(),
            bits=network.bits, point=int(0.25 * (1 << network.bits)), count=5)
        liar = cluster.kts.reply_interceptor
        assert isinstance(liar, TimestampLiar)
        # Stale-replay liars freeze the first value they are asked about.
        lying = tuple(peer for peer in sorted(network.alive_peer_ids())
                      if liar(peer, "probe", 1) == liar(peer, "probe", 2))
        assert lying == tuple(sorted(expected))
        assert log == [{"kind": "eclipse", "time": 0.0, "mode":
                        EXPECTED_MODES[protocol], "captured": len(expected),
                        "point": int(0.25 * (1 << network.bits))}]


class TestAttackedRunsOnAWideSpace:
    @pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
    @pytest.mark.parametrize("scenario", ["eclipse-default", "byzantine-half"])
    def test_repeated_runs_fire_once_and_agree(self, protocol, scenario):
        parameters = SimulationParameters.quick(
            seed=3, protocol=protocol, bits=160, num_peers=80, num_keys=6,
            num_queries=24, duration_s=600.0, update_rate_per_hour=60.0)
        spec = ("eclipse" if scenario == "eclipse-default"
                else byzantine_scenario_spec(0.5))
        first = run_scenario(spec, parameters).to_dict()
        assert first["parameters"]["bits"] == 160
        assert first["fault_events"] == 1
        assert run_scenario(spec, parameters).to_dict() == first
