"""``ChordRing._compute_jumps`` and the exponent hop against literal scans.

The reference below is Stoica et al.'s finger table, literally: finger ``e``
is the successor of ``node + 2^e``, one successor search per exponent, not
deduplicated.  The ring jumps from a finger at offset ``o`` straight to
exponent ``o.bit_length()`` and fills the exponents it skipped; the lists
must be equal on any ring.  A walk through fresh tables reads its hop at the
top bit of the distance to the responsible's predecessor; every hop must be
the closest preceding finger a brute-force scan of the literal table finds.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordRing


def scanned_jumps(ring, node_id):
    """Reference jumps: the successor of every ``node + 2^e``."""
    size = ring.space_size
    return [ring.successor((node_id + 2 ** exponent) % size)
            for exponent in range(ring.bits)]


def closest_preceding_finger(ring, current, point):
    """The literal finger of ``current`` strictly inside the clockwise
    interval ``(current, point)`` that is nearest ``point``, else the
    successor of ``current``: the hop Chord's ``find_predecessor`` takes."""
    size = ring.space_size
    span = (point - current) % size or size
    inside = [finger for finger in scanned_jumps(ring, current)
              if 0 < (finger - current) % size < span]
    if not inside:
        return ring.successor((current + 1) % size)
    return min(inside, key=lambda finger: (point - finger) % size)


@st.composite
def rings(draw):
    """A ring of 3–160 bits whose members cluster or spread at random."""
    bits = draw(st.integers(min_value=3, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32))
    count = draw(st.integers(min_value=1, max_value=min(64, 1 << bits)))
    rng = random.Random(seed)
    # Half the rings crowd their members into a narrow arc, so long runs of
    # exponents share one finger and the jump skips many at once.
    span = (1 << bits) if draw(st.booleans()) else max(count, (1 << bits) >> rng.randrange(bits))
    start = rng.randrange(1 << bits)
    ring = ChordRing(bits=bits, rng=random.Random(seed))
    for node_id in {(start + rng.randrange(span)) % (1 << bits) for _ in range(count)}:
        ring.add_node(node_id)
    return ring


@given(ring=rings())
@settings(max_examples=200, deadline=None)
def test_the_jumping_scan_equals_the_exponent_scan(ring):
    for node_id in ring.nodes():
        assert ring._compute_jumps(node_id) == scanned_jumps(ring, node_id)


@given(ring=rings(), picks=st.lists(st.integers(min_value=0, max_value=(1 << 160) - 1),
                                     min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_a_fresh_table_hop_is_the_closest_preceding_finger(ring, picks):
    members = ring.nodes()
    for node_id in members:
        ring.finger_table(node_id)        # every table fresh at this version
    size = ring.space_size
    for pick in picks:
        origin = members[pick % len(members)]
        for point in (pick % size, origin, (origin + 1) % size, (origin - 1) % size,
                      members[(pick >> 8) % len(members)]):
            path, responsible, retries, timeouts = ring.walk(origin, point, 0.0)
            assert (path[-1], retries, timeouts) == (responsible, 0, 0)
            for current, hop in zip(path, path[1:]):
                assert hop == closest_preceding_finger(ring, current, point), \
                    (current, point)


def test_a_lone_node_has_no_fingers():
    ring = ChordRing(bits=32)
    ring.add_node(7)
    assert ring._compute_jumps(7) == [7] * 32
    assert ring.finger_table(7) == []
