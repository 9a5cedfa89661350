"""The overlay table, and the one lookup every name table resolves through.

The paper's services are DHT-agnostic (Section 2 assumes only the lookup
service, ``put_h``/``get_h`` and responsibility notifications), so the
reproduction should be able to swap overlays freely.  :data:`OVERLAYS` maps
overlay names to factories; the network layer, the simulation configuration,
the CLI and the benchmarks all resolve the ``protocol`` string through it.

Three overlays ship, one class each: ``"chord"``
(:class:`~repro.dht.chord.ChordRing`), ``"can"``
(:class:`~repro.dht.can.CanSpace`) and ``"kademlia"``
(:class:`~repro.dht.kademlia.KademliaOverlay`).  Adding a backend is one
assignment::

    from repro.dht.registry import OVERLAYS

    def build_pastry(*, bits, stabilization_interval, rng, **extra):
        return PastryOverlay(bits=bits, rng=rng, **extra)

    OVERLAYS["pastry"] = build_pastry

after which ``DHTNetwork(protocol="pastry")``, ``repro scenario run
--protocol pastry`` and every experiment sweep accept the new name.

A factory is a callable taking keyword arguments ``bits``,
``stabilization_interval`` and ``rng`` (plus any overlay-specific extras) and
returning a :class:`repro.dht.model.DHTProtocol`.  Factories are free to
ignore knobs that do not apply to their overlay (CAN and Kademlia have no
periodic stabilisation, for example).

Every name table of the package — overlays here, currency services
(:data:`repro.api.services.SERVICES`), scenarios and the four scenario-model
tables — is a plain dict resolved through :func:`lookup`, which lives here
because this is the lowest layer that has a table.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Mapping, Optional, TypeVar

from repro.dht.can import CanSpace
from repro.dht.chord import ChordRing
from repro.dht.kademlia import KademliaOverlay
from repro.dht.model import DHTProtocol

__all__ = ["OVERLAYS", "OverlayFactory", "create_overlay", "lookup"]

_Entry = TypeVar("_Entry")

#: Signature of an overlay factory: keyword-only ``bits``,
#: ``stabilization_interval`` and ``rng`` plus overlay-specific extras.
OverlayFactory = Callable[..., DHTProtocol]


def lookup(table: Mapping[str, _Entry], name: str, what: str) -> _Entry:
    """The entry of ``table`` named ``name`` (matched exactly).

    Raises ``ValueError("unknown <what> <name>; known: ...")`` listing every
    known name, the one error of every name table.
    """
    try:
        return table[name]
    except KeyError:
        known = ", ".join(repr(known_name) for known_name in sorted(table))
        raise ValueError(f"unknown {what} {name!r}; known: {known}") from None


def create_overlay(name: str, *, bits: int = 32,
                   stabilization_interval: float = 30.0,
                   rng: Optional[random.Random] = None,
                   **extra: Any) -> DHTProtocol:
    """Build the overlay named ``name`` in :data:`OVERLAYS`.

    ``bits``, ``stabilization_interval`` and ``rng`` are the knobs every
    caller (network layer, simulation parameters) provides; ``extra`` is
    forwarded verbatim for overlay-specific options (e.g. CAN's
    ``dimensions`` or Kademlia's ``k``).
    """
    factory = lookup(OVERLAYS, name, "protocol")
    return factory(bits=bits, stabilization_interval=stabilization_interval,
                   rng=rng, **extra)


# --------------------------------------------------------- built-in overlays
def _build_chord(*, bits: int, stabilization_interval: float,
                 rng: Optional[random.Random], **extra: Any) -> ChordRing:
    return ChordRing(bits=bits, stabilization_interval=stabilization_interval,
                     rng=rng, **extra)


def _build_can(*, bits: int, stabilization_interval: float,
               rng: Optional[random.Random], **extra: Any) -> CanSpace:
    # CAN has no periodic stabilisation process; the knob is ignored.
    return CanSpace(bits=bits, rng=rng, **extra)


def _build_kademlia(*, bits: int, stabilization_interval: float,
                    rng: Optional[random.Random], **extra: Any) -> KademliaOverlay:
    # Kademlia refreshes buckets through lookup traffic, not stabilisation.
    return KademliaOverlay(bits=bits, rng=rng, **extra)


#: Overlay name -> factory, resolved by :func:`create_overlay`.
OVERLAYS: Dict[str, OverlayFactory] = {
    "chord": _build_chord,
    "can": _build_can,
    "kademlia": _build_kademlia,
}
