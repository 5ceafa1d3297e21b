"""Latency/throughput statistics for NoC runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import math

from .flit import Flit


def mean_latency(latencies: List[int]) -> float:
    """Mean of ``latencies``, cycles; NaN when there are none."""
    if not latencies:
        return math.nan
    return sum(latencies) / len(latencies)


def p99_latency(latencies: List[int]) -> float:
    """99th-percentile of ``latencies``, cycles; NaN when there are none."""
    if not latencies:
        return math.nan
    ordered = sorted(latencies)
    return float(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))])


def accepted_rate(flits: int, n_nodes: int, cycles: int) -> float:
    """Accepted traffic: ``flits`` ejected over ``cycles`` cycles, per
    node per cycle; 0.0 for an empty window."""
    if cycles == 0:
        return 0.0
    return flits / (cycles * n_nodes)


@dataclass
class NetworkStats:
    """Accumulated over one simulation run."""

    cycles: int = 0
    #: counted by the network's injection phase, once per cycle
    flits_injected: int = 0
    flits_ejected: int = 0
    packets_ejected: int = 0
    packet_latencies: List[int] = field(default_factory=list)
    #: the created cycle of each packet in ``packet_latencies``, so a
    #: measurement window can select the packets created in it
    packet_created: List[int] = field(default_factory=list)
    #: the one per-packet table: packet id -> [flits still to eject,
    #: created cycle], opened when the packet is offered and freed when
    #: its last flit ejects
    _packets: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # record_ejection runs once per ejected flit on the network's cycle
    # hot path; it is written as straight-line operations (no method
    # dispatch, one table lookup) so recording stays cheap even at
    # saturation.
    def open_packet(self, packet_id: int, length_flits: int,
                    created_cycle: int) -> None:
        """Start tracking a packet of ``length_flits`` flits."""
        self._packets[packet_id] = [length_flits, created_cycle]

    def record_ejection(self, flit: Flit, cycle: int) -> None:
        self.flits_ejected += 1
        packets = self._packets
        entry = packets[flit.packet_id]
        entry[0] -= 1
        if entry[0]:
            return
        self.packets_ejected += 1
        created = entry[1]
        self.packet_latencies.append(cycle - created)
        self.packet_created.append(created)
        del packets[flit.packet_id]

    # ------------------------------------------------------------------
    @property
    def mean_packet_latency(self) -> float:
        """Mean creation-to-ejection latency, cycles."""
        return mean_latency(self.packet_latencies)

    @property
    def p99_packet_latency(self) -> float:
        return p99_latency(self.packet_latencies)

    @property
    def in_flight_flits(self) -> int:
        """Flits injected but not yet ejected."""
        return self.flits_injected - self.flits_ejected

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "flits_injected": float(self.flits_injected),
            "flits_ejected": float(self.flits_ejected),
            "packets_ejected": float(self.packets_ejected),
            "mean_packet_latency": self.mean_packet_latency,
            "p99_packet_latency": self.p99_packet_latency,
        }
