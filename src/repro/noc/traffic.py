"""Traffic generators for the NoC experiments.

Standard synthetic patterns driving the mesh experiments:

* uniform random — every node sends to a uniformly random other node;
* transpose — (x, y) sends to (y, x);
* bit-complement — (x, y) sends to (cols-1-x, rows-1-y);
* hotspot — a fraction of traffic converges on one node;
* neighbour — each node sends to its east neighbour; the east column
  wraps to column 0, which on a mesh is a full-width westward route.

Injection is Bernoulli per node per cycle at ``injection_rate`` flits
per node per cycle (packets of ``packet_length`` flits are injected as
a whole; the rate counts flits).  Generators are deterministic given a
seed — the property tests rely on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .flit import Packet
from .topology import Coord, Topology


@dataclass
class TrafficConfig:
    """Parameters of a synthetic traffic run."""

    pattern: str = "uniform"
    injection_rate: float = 0.1  # flits / node / cycle
    packet_length: int = 4  # flits per packet
    hotspot: Optional[Coord] = None
    hotspot_fraction: float = 0.5
    seed: int = 2008  # the paper's year, for determinism

    def __post_init__(self) -> None:
        if not (0.0 <= self.injection_rate <= 1.0):
            raise ValueError(
                f"injection rate must be in [0, 1], got {self.injection_rate}"
            )
        if self.packet_length < 1:
            raise ValueError("packets need at least one flit")
        if not (0.0 <= self.hotspot_fraction <= 1.0):
            raise ValueError("hotspot fraction must be in [0, 1]")


class TrafficGenerator:
    """Produces packets for every node, cycle by cycle."""

    PATTERNS = ("uniform", "transpose", "bit_complement", "hotspot",
                "neighbor")

    def __init__(self, topology: Topology, config: TrafficConfig) -> None:
        if config.pattern not in self.PATTERNS:
            raise ValueError(
                f"unknown pattern {config.pattern!r}; "
                f"expected one of {self.PATTERNS}"
            )
        if config.pattern == "hotspot" and config.hotspot is None:
            raise ValueError("hotspot pattern needs a hotspot coordinate")
        if config.hotspot is not None and not topology.in_bounds(
            config.hotspot
        ):
            raise ValueError(
                f"hotspot {config.hotspot} is outside the "
                f"{topology.cols}x{topology.rows} mesh"
            )
        self.topology = topology
        self.config = config
        self._rng = random.Random(config.seed)
        self.packets_generated = 0
        #: source nodes in injection order, and for each source the
        #: uniform-destination list (every other node), built once
        self._nodes = tuple(topology.nodes())
        self._others = {
            src: [node for node in self._nodes if node != src]
            for src in self._nodes
        }

    # ------------------------------------------------------------------
    def _destination(self, src: Coord) -> Optional[Coord]:
        cfg = self.config
        topo = self.topology
        if cfg.pattern == "uniform":
            others = self._others[src]
            return self._rng.choice(others) if others else None
        if cfg.pattern == "transpose":
            dest = (src[1], src[0])
            if not topo.in_bounds(dest):
                return None
            return dest if dest != src else None
        if cfg.pattern == "bit_complement":
            dest = (topo.cols - 1 - src[0], topo.rows - 1 - src[1])
            return dest if dest != src else None
        if cfg.pattern == "hotspot":
            assert cfg.hotspot is not None
            if src != cfg.hotspot and self._rng.random() < cfg.hotspot_fraction:
                return cfg.hotspot
            others = self._others[src]
            return self._rng.choice(others) if others else None
        if cfg.pattern == "neighbor":
            dest = ((src[0] + 1) % topo.cols, src[1])
            return dest if dest != src else None
        raise AssertionError("unreachable")

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets injected network-wide during ``cycle``."""
        cfg = self.config
        packet_probability = cfg.injection_rate / cfg.packet_length
        length = cfg.packet_length
        # bound once per cycle; the RNG calls keep their order
        # (a draw per node, then destination, then payload base)
        random = self._rng.random
        getrandbits = self._rng.getrandbits
        destination = self._destination
        packets = []
        for src in self._nodes:
            if random() >= packet_probability:
                continue
            dest = destination(src)
            if dest is None:
                continue
            packets.append(Packet(
                src=src,
                dest=dest,
                length_flits=length,
                created_cycle=cycle,
                payload_base=getrandbits(16),
            ))
            self.packets_generated += 1
        return packets
