"""Mesh topologies for the NoC substrate.

Switch positions are (x, y) coordinates; ports are compass directions
plus LOCAL for the attached core.  A topology is a description object —
:class:`~repro.noc.network.Network` instantiates switches and links from
it.  :meth:`Topology.links` enumerates the directed links; the package
needs no graph library.

There is no torus: XY wormhole routing over wrap links deadlocks
without dateline virtual channels (Dally & Towles, ch. 14), and
nothing here builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Mapping, Tuple

Coord = Tuple[int, int]


class Port(Enum):
    """Switch ports: four neighbours plus the local core."""

    NORTH = "N"
    SOUTH = "S"
    EAST = "E"
    WEST = "W"
    LOCAL = "L"

    @property
    def opposite(self) -> "Port":
        return {
            Port.NORTH: Port.SOUTH,
            Port.SOUTH: Port.NORTH,
            Port.EAST: Port.WEST,
            Port.WEST: Port.EAST,
            Port.LOCAL: Port.LOCAL,
        }[self]


# ``index`` is a plain member attribute (like ``FlitKind.opens_route``):
# the cycle kernel indexes its per-port lists with it instead of hashing
# the enum on every lookup
for _index, _port in enumerate(Port):
    _port.index = _index
del _index, _port

#: ports by :attr:`Port.index` (N, S, E, W, L — the iteration order)
PORTS: Tuple[Port, ...] = tuple(Port)

_DELTAS: Dict[Port, Tuple[int, int]] = {
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}


@dataclass(frozen=True)
class Topology:
    """A rectangular mesh."""

    cols: int
    rows: int

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError(
                f"mesh must be at least 1x1, got {self.cols}x{self.rows}"
            )

    @property
    def n_nodes(self) -> int:
        return self.cols * self.rows

    def nodes(self) -> Iterator[Coord]:
        for y in range(self.rows):
            for x in range(self.cols):
                yield (x, y)

    def in_bounds(self, node: Coord) -> bool:
        x, y = node
        return 0 <= x < self.cols and 0 <= y < self.rows

    def neighbor(self, node: Coord, port: Port) -> Coord | None:
        """Neighbouring node through ``port``, or None at a mesh edge."""
        if port == Port.LOCAL:
            return None
        dx, dy = _DELTAS[port]
        x, y = node[0] + dx, node[1] + dy
        if 0 <= x < self.cols and 0 <= y < self.rows:
            return (x, y)
        return None

    def links(self) -> Iterator[Tuple[Coord, Port, Coord]]:
        """All directed switch-to-switch links (src, src_port, dst)."""
        for node in self.nodes():
            for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
                dst = self.neighbor(node, port)
                if dst is not None:
                    yield (node, port, dst)

    @property
    def n_directed_links(self) -> int:
        return sum(1 for _ in self.links())


def xy_route(src: Coord, dest: Coord, topology: Topology) -> List[Port]:
    """Dimension-ordered (X then Y) route — deadlock-free on a mesh."""
    if not topology.in_bounds(src) or not topology.in_bounds(dest):
        raise ValueError(f"route endpoints out of bounds: {src} -> {dest}")
    route: List[Port] = []
    x, y = src
    dx, dy = dest[0] - x, dest[1] - y
    route.extend([Port.EAST if dx > 0 else Port.WEST] * abs(dx))
    route.extend([Port.NORTH if dy > 0 else Port.SOUTH] * abs(dy))
    return route


def next_hop(current: Coord, dest: Coord, topology: Topology) -> Port:
    """The next output port on the XY route from ``current`` to ``dest``."""
    if current == dest:
        return Port.LOCAL
    route = xy_route(current, dest, topology)
    return route[0]


def compile_next_hop(topology: Topology):
    """A fast ``(current, dest) -> Port`` closure for one topology.

    Decision-identical to :func:`next_hop` (see the equivalence test in
    ``tests/test_noc_topology.py``) but skips the bounds validation and
    the full-route list that :func:`xy_route` builds — the network cycle
    kernel calls this for every head flit it arbitrates, where
    materialising the whole remaining path is pure waste.
    """
    east, west = Port.EAST, Port.WEST
    north, south = Port.NORTH, Port.SOUTH
    local = Port.LOCAL

    def fast_next_hop(current: Coord, dest: Coord) -> Port:
        dx = dest[0] - current[0]
        if dx > 0:
            return east
        if dx < 0:
            return west
        dy = dest[1] - current[1]
        if dy > 0:
            return north
        if dy < 0:
            return south
        return local

    return fast_next_hop


def west_first_permitted(
    current: Coord, dest: Coord, topology: Topology
) -> List[Port]:
    """Output ports the *west-first* turn model permits (Glass/Ni).

    The rule: all westward hops must be taken first (while moving west
    no turns to other directions are allowed); once the destination is
    not to the west, the packet may route adaptively among the
    productive E/N/S directions.  Prohibiting the {N,S,E}→W turns makes
    the resulting channel-dependency graph acyclic, so wormhole routing
    is deadlock-free with a single virtual channel — while still leaving
    room to steer around congestion.

    Returns the list of permitted *productive* ports (LOCAL when the
    packet has arrived).
    """
    if not topology.in_bounds(current) or not topology.in_bounds(dest):
        raise ValueError(f"route endpoints out of bounds: {current}->{dest}")
    if current == dest:
        return [Port.LOCAL]
    dx = dest[0] - current[0]
    dy = dest[1] - current[1]
    if dx < 0:
        return [Port.WEST]
    ports: List[Port] = []
    if dx > 0:
        ports.append(Port.EAST)
    if dy > 0:
        ports.append(Port.NORTH)
    elif dy < 0:
        ports.append(Port.SOUTH)
    return ports


def compile_west_first(
    topology: Topology, links: Mapping[Tuple[Coord, Port], object]
):
    """A fast west-first adaptive ``(current, dest) -> Port`` closure.

    Decision-identical to taking, among :func:`west_first_permitted`,
    the port whose outgoing link in ``links`` (keyed ``(node, port)``)
    has the lowest ``occupancy``, ties broken by ``port.value`` (see
    ``tests/test_noc_adaptive.py``).  Occupancy is read when the closure
    is called, so decisions follow the links as they fill and drain.
    Skips the bounds checks (:meth:`Network.offer_packet
    <repro.noc.network.Network.offer_packet>` rejects out-of-mesh
    destinations) and reads the links from a flat list indexed
    ``(y * cols + x) * 5 + port.index`` instead of hashing
    ``(node, Port)`` keys.
    """
    cols = topology.cols
    n_ports = len(PORTS)
    slots: List[object] = [None] * (topology.n_nodes * n_ports)
    for (node, port), link in links.items():
        slots[(node[1] * cols + node[0]) * n_ports + port.index] = link
    east, west = Port.EAST, Port.WEST
    north, south = Port.NORTH, Port.SOUTH
    local = Port.LOCAL
    east_i, north_i, south_i = east.index, north.index, south.index

    def west_first_route(current: Coord, dest: Coord) -> Port:
        x, y = current
        dx = dest[0] - x
        if dx < 0:
            return west
        dy = dest[1] - y
        if dx == 0:
            if dy > 0:
                return north
            if dy < 0:
                return south
            return local
        if dy == 0:
            return east
        base = (y * cols + x) * n_ports
        if dy > 0:
            other, other_i = north, north_i
        else:
            other, other_i = south, south_i
        # "E" sorts before "N" and "S", so EAST wins occupancy ties
        if slots[base + east_i].occupancy <= slots[base + other_i].occupancy:
            return east
        return other

    return west_first_route
