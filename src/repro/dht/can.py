"""CAN overlay (Ratnasamy et al., SIGCOMM 2001).

CAN partitions a *d*-dimensional coordinate space among peers; a peer is
responsible for a key when the key's point falls inside (one of) its zones.
The paper uses CAN (together with Chord) in Section 4.2.1 to argue that the
*next* responsible for a key is always a neighbour of the current responsible,
which is what makes the direct counter-transfer algorithm O(1):

* **join** — the newcomer splits the zone of the current owner in half, so the
  previous owner is a neighbour of the newcomer;
* **leave / fail** — the departing peer's zone is taken over by the neighbour
  owning the smallest zone.

The identifier space is the same ``[0, 2^bits)`` integer space used by Chord;
a point is interpreted as *d* packed coordinates so that the same hash
functions drive both overlays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dht.errors import (
    EmptyNetworkError,
    InvalidConfigurationError,
    NodeAlreadyPresentError,
    NoSuchPeerError,
)
from repro.dht.model import DepartureReason, DHTProtocol, RouteResult

__all__ = ["CanSpace", "Zone"]


@dataclass(frozen=True)
class Zone:
    """A half-open axis-aligned box ``[lo, hi)`` of the coordinate space."""

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise InvalidConfigurationError("zone bounds must have equal dimensionality")
        for low, high in zip(self.lo, self.hi):
            if low >= high:
                raise InvalidConfigurationError(f"degenerate zone bounds {self.lo}..{self.hi}")

    @property
    def dimensions(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> int:
        volume = 1
        for low, high in zip(self.lo, self.hi):
            volume *= high - low
        return volume

    def contains(self, coords: Sequence[int]) -> bool:
        return all(low <= value < high
                   for value, low, high in zip(coords, self.lo, self.hi))

    def center(self) -> Tuple[float, ...]:
        return tuple((low + high) / 2.0 for low, high in zip(self.lo, self.hi))

    def split(self) -> Tuple["Zone", "Zone"]:
        """Split the zone in half along its longest dimension."""
        extents = [high - low for low, high in zip(self.lo, self.hi)]
        axis = max(range(len(extents)), key=lambda index: extents[index])
        if extents[axis] < 2:
            raise InvalidConfigurationError("zone is too small to split")
        mid = (self.lo[axis] + self.hi[axis]) // 2
        first_hi = list(self.hi)
        first_hi[axis] = mid
        second_lo = list(self.lo)
        second_lo[axis] = mid
        return (Zone(self.lo, tuple(first_hi)), Zone(tuple(second_lo), self.hi))

    def touches(self, other: "Zone") -> bool:
        """True when the two zones share a (d-1)-dimensional face."""
        share_face = 0
        for (a_lo, a_hi), (b_lo, b_hi) in zip(zip(self.lo, self.hi), zip(other.lo, other.hi)):
            if a_hi == b_lo or b_hi == a_lo:
                share_face += 1
            elif min(a_hi, b_hi) <= max(a_lo, b_lo):
                return False  # disjoint in this dimension with a gap
        return share_face >= 1

    def distance_to(self, coords: Sequence[int]) -> float:
        """Euclidean distance from the zone (its closest point) to ``coords``."""
        total = 0.0
        for value, low, high in zip(coords, self.lo, self.hi):
            if value < low:
                total += (low - value) ** 2
            elif value >= high:
                total += (value - (high - 1)) ** 2
        return total ** 0.5


class CanSpace(DHTProtocol):
    """A CAN coordinate space shared by the live peers.

    Parameters
    ----------
    bits:
        Total number of identifier bits; each of the ``dimensions`` axes gets
        ``bits // dimensions`` bits.
    dimensions:
        Dimensionality *d* of the space (the original paper uses small *d*,
        typically 2–4).
    """

    def __init__(self, bits: int = 32, *, dimensions: int = 2,
                 rng: Optional[random.Random] = None) -> None:
        if dimensions < 1:
            raise InvalidConfigurationError("dimensions must be >= 1")
        if bits < dimensions or bits // dimensions < 2:
            raise InvalidConfigurationError(
                f"need at least 2 bits per dimension, got {bits} bits / {dimensions} dims")
        self.bits = bits
        #: Number of points in the identifier space.
        self.space_size = 1 << bits
        self.dimensions = dimensions
        self.bits_per_dimension = bits // dimensions
        self._rng = rng if rng is not None else random.Random(0)
        self._zones: Dict[int, List[Zone]] = {}
        self._departed: Dict[int, Tuple[str, float]] = {}
        self._init_version_caches()
        self._neighbors_cache: Dict[int, Set[int]] = {}

    def _clear_version_caches(self) -> None:
        self._neighbors_cache.clear()

    # ------------------------------------------------------------------ helpers
    @property
    def axis_size(self) -> int:
        """Number of coordinate values along each axis."""
        return 1 << self.bits_per_dimension

    def coordinates(self, point: int) -> Tuple[int, ...]:
        """Unpack an identifier point into *d* axis coordinates."""
        point %= self.space_size
        mask = self.axis_size - 1
        return tuple((point >> (axis * self.bits_per_dimension)) & mask
                     for axis in range(self.dimensions))

    def _whole_space(self) -> Zone:
        return Zone(lo=(0,) * self.dimensions, hi=(self.axis_size,) * self.dimensions)

    # ------------------------------------------------------------------ topology
    def nodes(self) -> Sequence[int]:
        return self._cached_nodes(lambda: tuple(sorted(self._zones)))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._zones

    def __len__(self) -> int:
        return len(self._zones)

    def zones_of(self, node_id: int) -> List[Zone]:
        """The zones currently owned by ``node_id``."""
        if node_id not in self._zones:
            raise NoSuchPeerError(node_id)
        return list(self._zones[node_id])

    def owned_volume(self, node_id: int) -> int:
        """Total volume of the zones owned by ``node_id``."""
        return sum(zone.volume for zone in self.zones_of(node_id))

    def add_node(self, node_id: int, *, now: float = 0.0) -> Set[int]:
        if node_id in self._zones:
            raise NodeAlreadyPresentError(node_id)
        if not 0 <= node_id < self.space_size:
            raise InvalidConfigurationError(
                f"node id {node_id} outside identifier space [0, 2^{self.bits})")
        self._departed.pop(node_id, None)
        if not self._zones:
            self._grant_zone(node_id, self._whole_space())
            self._membership_changed()
            return set()
        # The newcomer picks a random point; the owner of the zone containing
        # that point splits it in half and keeps one half.
        join_point = self.coordinates(self._rng.randrange(self.space_size))
        owner = self._owner_of(join_point)
        zone = self._zone_containing(owner, join_point)
        try:
            first, second = zone.split()
        except InvalidConfigurationError:
            # The chosen zone is already minimal; split the owner's largest
            # splittable zone instead.
            zone = self._largest_splittable_zone(owner)
            first, second = zone.split()
        self._revoke_zone(owner, zone)
        if first.contains(join_point):
            newcomer_zone, owner_zone = first, second
        else:
            newcomer_zone, owner_zone = second, first
        self._grant_zone(owner, owner_zone)
        self._grant_zone(node_id, newcomer_zone)
        self._membership_changed()
        return {owner}

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        if node_id not in self._zones:
            raise NoSuchPeerError(node_id)
        abandoned = self._drop_node_zones(node_id)
        self._departed[node_id] = (reason, now)
        self._membership_changed()
        if not self._zones:
            return
        for zone in abandoned:
            takeover = self._takeover_candidate(zone)
            self._grant_zone(takeover, zone)

    # --------------------------------------------------------- zone-table hooks
    # Every mutation of the node -> zones table funnels through these three
    # methods so alternative representations (the columnar packed zone table in
    # :mod:`repro.dht.columnar.can`) can maintain their point-lookup indexes
    # without re-implementing the join/leave protocol above.

    def _grant_zone(self, node_id: int, zone: Zone) -> None:
        """Assign ``zone`` to ``node_id`` (creating its entry on first grant)."""
        zones = self._zones.get(node_id)
        if zones is None:
            self._zones[node_id] = [zone]
        else:
            zones.append(zone)

    def _revoke_zone(self, node_id: int, zone: Zone) -> None:
        """Take ``zone`` away from ``node_id`` (it is about to be split)."""
        self._zones[node_id].remove(zone)

    def _drop_node_zones(self, node_id: int) -> List[Zone]:
        """Remove ``node_id`` from the zone table, returning its zones."""
        return self._zones.pop(node_id)

    def _takeover_candidate(self, zone: Zone) -> int:
        """The neighbour with the smallest owned volume takes over ``zone``."""
        candidates = [node for node, zones in self._zones.items()
                      if any(zone.touches(owned) for owned in zones)]
        if not candidates:
            candidates = list(self._zones)
        return min(candidates, key=lambda node: (self.owned_volume(node), node))

    def _largest_splittable_zone(self, owner: int) -> Zone:
        splittable = [zone for zone in self._zones[owner]
                      if max(high - low for low, high in zip(zone.lo, zone.hi)) >= 2]
        if not splittable:
            raise InvalidConfigurationError(
                f"node {owner} owns no splittable zone; increase bits per dimension")
        return max(splittable, key=lambda zone: zone.volume)

    # ----------------------------------------------------------- responsibility
    def _owner_of(self, coords: Sequence[int]) -> int:
        for node_id, zones in self._zones.items():
            for zone in zones:
                if zone.contains(coords):
                    return node_id
        raise EmptyNetworkError("the CAN space has no live nodes")

    def _zone_containing(self, owner: int, coords: Sequence[int]) -> Zone:
        for zone in self._zones[owner]:
            if zone.contains(coords):
                return zone
        raise NoSuchPeerError(owner)

    def responsible_for(self, point: int) -> int:
        if not self._zones:
            raise EmptyNetworkError("the CAN space has no live nodes")
        # The zone scan is O(peers); memoise per membership version so hot
        # points resolve in a dictionary hit.
        return self._memoised_responsible(
            point, lambda p: self._owner_of(self.coordinates(p)))

    def next_responsible(self, point: int) -> Optional[int]:
        if len(self._zones) < 2:
            return None
        owner = self.responsible_for(point)
        coords = self.coordinates(point)
        zone = self._zone_containing(owner, coords)
        neighbors = [node for node in self.neighbors(owner)
                     if any(zone.touches(owned) for owned in self._zones[node])]
        if not neighbors:
            neighbors = [node for node in self._zones if node != owner]
        return min(neighbors, key=lambda node: (self.owned_volume(node), node))

    def neighbors(self, node_id: int) -> Set[int]:
        if node_id not in self._zones:
            raise NoSuchPeerError(node_id)
        # The all-pairs zone adjacency test is the most expensive query on the
        # overlay and routing asks it once per hop; snapshots are memoised per
        # membership version (zone boundaries only move on churn).
        cached = self._neighbors_cache.get(node_id)
        if cached is not None:
            return set(cached)
        own_zones = self._zones[node_id]
        neighbor_set: Set[int] = set()
        for other, zones in self._zones.items():
            if other == node_id:
                continue
            for zone in zones:
                if any(zone.touches(own) for own in own_zones):
                    neighbor_set.add(other)
                    break
        self._neighbors_cache[node_id] = neighbor_set
        return set(neighbor_set)

    def departure_reason(self, node_id: int) -> Optional[str]:
        """How a departed node left (``"leave"``/``"fail"``), if known."""
        record = self._departed.get(node_id)
        return record[0] if record else None

    # ------------------------------------------------------------------ routing
    def route(self, origin: int, point: int, *, now: float = 0.0) -> RouteResult:
        if origin not in self._zones:
            raise NoSuchPeerError(origin)
        coords = self.coordinates(point)
        responsible = self.responsible_for(point)
        path: List[int] = [origin]
        current = origin
        visited: Set[int] = {origin}
        max_hops = 4 * self.dimensions * self.axis_size
        while current != responsible and len(path) <= max_hops:
            current_distance = min(zone.distance_to(coords)
                                   for zone in self._zones[current])
            best: Optional[int] = None
            best_distance = current_distance
            for neighbor in self.neighbors(current):
                if neighbor in visited:
                    continue
                distance = min(zone.distance_to(coords)
                               for zone in self._zones[neighbor])
                if best is None or distance < best_distance:
                    best = neighbor
                    best_distance = distance
            if best is None:
                break
            path.append(best)
            visited.add(best)
            current = best
        if path[-1] != responsible:
            path.append(responsible)
        return RouteResult(path=tuple(path), responsible=responsible,
                           retries=0, timeouts=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CanSpace(bits={self.bits}, dimensions={self.dimensions}, "
                f"nodes={len(self._zones)})")
