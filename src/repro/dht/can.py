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

Point ownership
---------------
Zones only ever arise from *canonical halving splits*: a zone is split along
its longest axis at the midpoint (lowest axis on ties), halves are never
merged, and a takeover reassigns zones intact.  Every live zone is therefore
a node of one fixed binary tree rooted at the whole space, so the owner of a
point is found by descending that tree — split, keep the half containing the
point, stop at the first zone in the index — in ``O(log n)`` splits instead
of a scan over every zone.  That keeps network construction (each join
resolves an owner) at ``O(n log n)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dht.errors import EmptyNetworkError, InvalidConfigurationError, NoSuchPeerError
from repro.dht.model import DepartureReason, DHTProtocol, Walk

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
        super().__init__(bits)
        self.dimensions = dimensions
        self.bits_per_dimension = bits // dimensions
        self._rng = rng if rng is not None else random.Random(0)
        self._zones: Dict[int, List[Zone]] = {}
        # Packed bounds of every live zone -> its owner (see _pack_zone).
        self._zone_owner: Dict[int, int] = {}
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

    def _pack_zone(self, zone: Zone) -> int:
        """Pack a zone's ``2·d`` bounds into one integer key.

        Each bound lies in ``[0, axis_size]`` (the upper bound at the space
        edge is inclusive), so it takes ``bits_per_dimension + 1`` bits, and
        distinct zones always pack to distinct keys.
        """
        width = self.bits_per_dimension + 1
        packed = 0
        for low, high in zip(zone.lo, zone.hi):
            packed = (packed << (2 * width)) | (low << width) | high
        return packed

    # ------------------------------------------------------------------ topology
    def zones_of(self, node_id: int) -> List[Zone]:
        """The zones currently owned by ``node_id``."""
        if node_id not in self._zones:
            raise NoSuchPeerError(node_id)
        return list(self._zones[node_id])

    # reprolint: allow[REP008] reason=read view: tests/dht/test_can.py checks zone splits through it
    def owned_volume(self, node_id: int) -> int:
        """Total volume of the zones owned by ``node_id``."""
        return sum(zone.volume for zone in self.zones_of(node_id))

    def add_node(self, node_id: int, *, now: float = 0.0) -> Set[int]:
        self._check_join(node_id)
        affected: Set[int] = set()
        if not self._zones:
            self._grant_zone(node_id, self._whole_space())
        else:
            # The newcomer picks a random point; the owner of the zone
            # containing that point splits it in half and keeps one half.
            join_point = self.coordinates(self._rng.randrange(self.space_size))
            owner = self._owner_of(join_point)
            zone = self._zone_containing(owner, join_point)
            try:
                first, second = zone.split()
            except InvalidConfigurationError:
                # The chosen zone is already minimal; split the owner's
                # largest splittable zone instead.
                zone = self._largest_splittable_zone(owner)
                first, second = zone.split()
            self._revoke_zone(owner, zone)
            if first.contains(join_point):
                newcomer_zone, owner_zone = first, second
            else:
                newcomer_zone, owner_zone = second, first
            self._grant_zone(owner, owner_zone)
            self._grant_zone(node_id, newcomer_zone)
            affected.add(owner)
        # Entered once its zone is granted: a failed split leaves no trace.
        self._enter(node_id)
        self._membership_changed(affected)
        return affected

    def remove_node(self, node_id: int, *, reason: str = DepartureReason.LEAVE,
                    now: float = 0.0) -> None:
        self._exit(node_id, reason, now)
        takeovers = self._takeovers(node_id)
        self._drop_node_zones(node_id)
        for zone, takeover in takeovers:
            self._grant_zone(takeover, zone)

    # -------------------------------------------------------------- zone table
    # Every mutation of the node -> zones table funnels through these three
    # methods, which keep the point-ownership index in step with it.

    def _grant_zone(self, node_id: int, zone: Zone) -> None:
        """Assign ``zone`` to ``node_id`` (creating its entry on first grant)."""
        self._zones.setdefault(node_id, []).append(zone)
        self._zone_owner[self._pack_zone(zone)] = node_id

    def _revoke_zone(self, node_id: int, zone: Zone) -> None:
        """Take ``zone`` away from ``node_id`` (it is about to be split)."""
        self._zones[node_id].remove(zone)
        del self._zone_owner[self._pack_zone(zone)]

    def _drop_node_zones(self, node_id: int) -> None:
        """Remove ``node_id`` and its zones from the zone table."""
        for zone in self._zones.pop(node_id):
            del self._zone_owner[self._pack_zone(zone)]

    def _takeovers(self, owner: int) -> List[Tuple[Zone, int]]:
        """Who takes over each of ``owner``'s zones when it departs, in order.

        Each zone goes to the neighbour with the smallest owned volume.  An
        earlier grant adds a face and volume to its receiver, so it can change
        who wins a later zone; departures and ``next_responsible`` both read
        this one plan.
        """
        table = {node: list(zones) for node, zones in self._zones.items()
                 if node != owner}
        if not table:
            return []
        takeovers = []
        for zone in self._zones[owner]:
            candidates = [node for node, zones in table.items()
                          if any(zone.touches(owned) for owned in zones)]
            takeover = min(candidates or list(table), key=lambda node: (
                sum(owned.volume for owned in table[node]), node))
            table[takeover].append(zone)
            takeovers.append((zone, takeover))
        return takeovers

    def _largest_splittable_zone(self, owner: int) -> Zone:
        splittable = [zone for zone in self._zones[owner]
                      if max(high - low for low, high in zip(zone.lo, zone.hi)) >= 2]
        if not splittable:
            raise InvalidConfigurationError(
                f"node {owner} owns no splittable zone; increase bits per dimension")
        return max(splittable, key=lambda zone: zone.volume)

    # ----------------------------------------------------------- responsibility
    def _owner_of(self, coords: Sequence[int]) -> int:
        """Descend the canonical split tree to the zone containing ``coords``.

        The descent ends at an indexed zone after at most ``bits`` splits;
        a zone too small to split (which only an index out of step with the
        zone table could reach) raises instead of looping.
        """
        if not self._zones:
            raise EmptyNetworkError("the CAN space has no live nodes")
        zone = self._whole_space()
        while True:
            owner = self._zone_owner.get(self._pack_zone(zone))
            if owner is not None:
                return owner
            first, second = zone.split()
            zone = first if first.contains(coords) else second

    def _zone_containing(self, owner: int, coords: Sequence[int]) -> Zone:
        for zone in self._zones[owner]:
            if zone.contains(coords):
                return zone
        raise NoSuchPeerError(owner)

    def responsible_for(self, point: int) -> int:
        if not self._zones:
            raise EmptyNetworkError("the CAN space has no live nodes")
        # Memoised (evicted per moved node) so hot points resolve in a
        # dictionary hit instead of a split-tree descent.
        return self._memoised_responsible(
            point, lambda p: self._owner_of(self.coordinates(p)))

    # reprolint: allow[REP008] reason=bench/layers.py wraps it by attribute; ROADMAP item 1 deletes it with that list
    def next_responsible(self, point: int) -> Optional[int]:
        if len(self._zones) < 2:
            return None
        owner = self.responsible_for(point)
        coords = self.coordinates(point)
        for zone, takeover in self._takeovers(owner):
            if zone.contains(coords):
                return takeover
        raise NoSuchPeerError(owner)

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

    # ------------------------------------------------------------------ routing
    def walk(self, origin: int, point: int, now: float) -> Walk:
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
        if current != responsible:
            path.append(responsible)
        return path, responsible, 0, 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CanSpace(bits={self.bits}, dimensions={self.dimensions}, "
                f"nodes={len(self._zones)})")
