"""Compatibility alias for the benchmark suite; not part of the public API.

The overlays once came in two storage layouts, and the packed-array Chord
ring was imported from here by name.  Every overlay is now one class, so
``ColumnarChordRing`` is :class:`~repro.dht.chord.ChordRing` itself.  The
alias stays only until the benchmark tests that import it are updated, and
is not exported from :mod:`repro.dht`.
"""

from repro.dht.chord import ChordRing

ColumnarChordRing = ChordRing

__all__ = ["ColumnarChordRing"]
