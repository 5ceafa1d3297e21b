"""Synchronous NoC substrate: flits, switches, topologies, traffic.

The paper's links live between the switches of a synchronous NoC; this
package provides that context so the links can be evaluated inside full
networks (mesh latency/throughput under synthetic traffic), not just on
an isolated point-to-point testbench.

Flits carry a concrete ``vc`` field (virtual channel, assigned at
injection, default 0) — the cycle kernel reads ``flit.vc`` directly on
its hot path, so anything offering flits to a :class:`Network` or
:class:`Switch` must provide real :class:`Flit` instances rather than
duck-typed stand-ins without ``vc``.

The cycle kernel itself is event-driven (see
:mod:`repro.noc.network`); the original full-scan kernel is preserved
in :mod:`repro.noc.reference` as the differential-testing oracle and
the baseline that ``python -m repro bench`` measures speedups against.
"""

from .flit import Coord, Flit, FlitKind, Packet, reset_packet_ids
from .topology import (
    Port,
    Topology,
    compile_next_hop,
    next_hop,
    west_first_permitted,
    xy_route,
)
from .switch import InputQueue, Switch
from .traffic import TrafficConfig, TrafficGenerator
from .network import Network, build_run, measure_point, run_mesh_point
from .stats import NetworkStats

__all__ = [
    "Coord",
    "Flit",
    "FlitKind",
    "Packet",
    "reset_packet_ids",
    "Port",
    "Topology",
    "compile_next_hop",
    "next_hop",
    "west_first_permitted",
    "xy_route",
    "InputQueue",
    "Switch",
    "TrafficConfig",
    "TrafficGenerator",
    "Network",
    "build_run",
    "measure_point",
    "run_mesh_point",
    "NetworkStats",
]
