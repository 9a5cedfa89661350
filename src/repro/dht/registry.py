"""Pluggable overlay registry.

The paper's services are DHT-agnostic (Section 2 assumes only the lookup
service, ``put_h``/``get_h`` and responsibility notifications), so the
reproduction should be able to swap overlays freely.  This module is the
single place where overlay implementations are registered by name; the
network layer, the simulation configuration, the CLI and the benchmarks all
resolve the ``protocol`` string through it.

Three overlays ship registered, one class each: ``"chord"``
(:class:`~repro.dht.chord.ChordRing`), ``"can"``
(:class:`~repro.dht.can.CanSpace`) and ``"kademlia"``
(:class:`~repro.dht.kademlia.KademliaOverlay`).  Adding a backend is one
call::

    from repro.dht.registry import register_overlay

    def build_pastry(*, bits, stabilization_interval, rng, **extra):
        return PastryOverlay(bits=bits, rng=rng, **extra)

    register_overlay("pastry", build_pastry)

after which ``DHTNetwork(protocol="pastry")``, ``repro simulate --protocol
pastry`` and every experiment sweep accept the new name.

A factory is a callable taking keyword arguments ``bits``,
``stabilization_interval`` and ``rng`` (plus any overlay-specific extras) and
returning a :class:`repro.dht.model.DHTProtocol`.  Factories are free to
ignore knobs that do not apply to their overlay (CAN and Kademlia have no
periodic stabilisation, for example).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.dht.can import CanSpace
from repro.dht.chord import ChordRing
from repro.dht.kademlia import KademliaOverlay
from repro.dht.model import DHTProtocol

__all__ = [
    "OverlayFactory",
    "create_overlay",
    "is_registered",
    "overlay_names",
    "register_overlay",
    "unregister_overlay",
]

#: Signature of an overlay factory: keyword-only ``bits``,
#: ``stabilization_interval`` and ``rng`` plus overlay-specific extras.
OverlayFactory = Callable[..., DHTProtocol]

_FACTORIES: Dict[str, OverlayFactory] = {}


def register_overlay(name: str, factory: OverlayFactory, *,
                     replace: bool = False) -> None:
    """Register ``factory`` under ``name`` (case-insensitive).

    Raises :class:`ValueError` when the name is already taken, unless
    ``replace=True`` is passed explicitly.
    """
    key = name.lower()
    if not key:
        raise ValueError("overlay name must be a non-empty string")
    if key in _FACTORIES and not replace:
        raise ValueError(
            f"overlay {key!r} is already registered; pass replace=True to "
            "override it")
    _FACTORIES[key] = factory


def unregister_overlay(name: str) -> None:
    """Remove ``name`` from the registry."""
    key = name.lower()
    if key not in _FACTORIES:
        raise ValueError(f"overlay {key!r} is not registered")
    del _FACTORIES[key]


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered overlay factory."""
    return name.lower() in _FACTORIES


def overlay_names() -> Tuple[str, ...]:
    """The registered overlay names, sorted."""
    return tuple(sorted(_FACTORIES))


def create_overlay(name: str, *, bits: int = 32,
                   stabilization_interval: float = 30.0,
                   rng: Optional[random.Random] = None,
                   **extra) -> DHTProtocol:
    """Build the overlay registered under ``name``.

    ``bits``, ``stabilization_interval`` and ``rng`` are the knobs every
    caller (network layer, simulation parameters) provides; ``extra`` is
    forwarded verbatim for overlay-specific options (e.g. CAN's
    ``dimensions`` or Kademlia's ``k``).
    """
    key = name.lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        known = ", ".join(repr(known_name) for known_name in overlay_names())
        raise ValueError(f"unknown protocol {key!r}; registered overlays: {known}")
    return factory(bits=bits, stabilization_interval=stabilization_interval,
                   rng=rng, **extra)


# --------------------------------------------------------- built-in overlays
def _build_chord(*, bits: int, stabilization_interval: float,
                 rng: Optional[random.Random], **extra) -> ChordRing:
    return ChordRing(bits=bits, stabilization_interval=stabilization_interval,
                     rng=rng, **extra)


def _build_can(*, bits: int, stabilization_interval: float,
               rng: Optional[random.Random], **extra) -> CanSpace:
    # CAN has no periodic stabilisation process; the knob is ignored.
    return CanSpace(bits=bits, rng=rng, **extra)


def _build_kademlia(*, bits: int, stabilization_interval: float,
                    rng: Optional[random.Random], **extra) -> KademliaOverlay:
    # Kademlia refreshes buckets through lookup traffic, not stabilisation.
    return KademliaOverlay(bits=bits, rng=rng, **extra)


register_overlay("chord", _build_chord)
register_overlay("can", _build_can)
register_overlay("kademlia", _build_kademlia)
