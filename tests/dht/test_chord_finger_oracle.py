"""``ChordRing._compute_fingers`` against the retained 32-exponent scan.

The reference below is the finger computation the ring shipped until
11.1.0: one successor search per exponent, deduplicated, never the node
itself.  The ring now jumps from a finger at offset ``o`` straight to
exponent ``o.bit_length()`` and stops at the first target whose successor is
the node; the tables must be equal, entries and offsets, on any ring.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord import ChordRing


def scanned_fingers(ring, node_id):
    """Reference ``(entries, offsets)``: the successor of every ``node + 2^i``."""
    size = ring.space_size
    entries, offsets = [], []
    for exponent in range(ring.bits):
        finger = ring.successor((node_id + (1 << exponent)) % size)
        if finger != node_id and (not entries or finger != entries[-1]):
            entries.append(finger)
            offsets.append((finger - node_id) % size)
    return entries, offsets


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
        assert ring._compute_fingers(node_id) == scanned_fingers(ring, node_id)


def test_a_lone_node_has_no_fingers():
    ring = ChordRing(bits=32)
    ring.add_node(7)
    assert ring._compute_fingers(7) == ([], [])
