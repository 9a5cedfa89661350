"""DHT substrate: hashing, overlay protocols (Chord, CAN, Kademlia), storage
and the in-process replicated DHT network used by the UMS/KTS services.

The public surface of this sub-package:

* :class:`repro.dht.hashing.HashFamily` and
  :class:`repro.dht.hashing.PairwiseIndependentHash` — Carter–Wegman hash
  functions used both for data placement (``Hr``) and timestamping (``h_ts``).
* :class:`repro.dht.chord.ChordRing`, :class:`repro.dht.can.CanSpace` and
  :class:`repro.dht.kademlia.KademliaOverlay` — overlay protocols
  implementing :class:`repro.dht.model.DHTProtocol`, one class per overlay.
* :mod:`repro.dht.registry` — the :data:`~repro.dht.registry.OVERLAYS`
  table that resolves ``protocol`` names (``"chord"``, ``"can"``,
  ``"kademlia"``, plus any overlay added at runtime) to factories.
* :class:`repro.dht.network.DHTNetwork` — a network of peers running one of
  the overlays, exposing the paper's ``put_h`` / ``get_h`` / lookup operations
  with message accounting and churn (join / leave / fail) with data handover.
"""

from repro.dht.errors import (
    DHTError,
    EmptyNetworkError,
    NoSuchPeerError,
)
from repro.dht.hashing import HashFamily, PairwiseIndependentHash, key_digest
from repro.dht.messages import MessageKind, MessageSizes, TraceSummary
from repro.dht.model import (
    DHTProtocol,
    LookupResult,
    RouteResult,
)
from repro.dht.storage import LocalStore, StoredValue
from repro.dht.chord import ChordRing
from repro.dht.can import CanSpace
from repro.dht.kademlia import KademliaOverlay
from repro.dht.registry import OVERLAYS, create_overlay
from repro.dht.network import DHTNetwork, NetworkObserver, PeerState

__all__ = [
    "CanSpace",
    "ChordRing",
    "DHTError",
    "DHTNetwork",
    "DHTProtocol",
    "EmptyNetworkError",
    "HashFamily",
    "KademliaOverlay",
    "LocalStore",
    "LookupResult",
    "MessageKind",
    "MessageSizes",
    "NetworkObserver",
    "NoSuchPeerError",
    "OVERLAYS",
    "PairwiseIndependentHash",
    "PeerState",
    "RouteResult",
    "StoredValue",
    "TraceSummary",
    "create_overlay",
    "key_digest",
]
