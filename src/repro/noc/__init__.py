"""Synchronous NoC substrate: flits, switches, topologies, traffic.

The paper's links live between the switches of a synchronous NoC; this
package provides that context so the links can be evaluated inside full
networks (mesh latency/throughput under synthetic traffic), not just on
an isolated point-to-point testbench.

Every switch has one input lane per port and no virtual channels, as
in the paper's plain wormhole NoC: a flit enters the lane of the port
it arrives on.  A :class:`Switch` reads only a flit's ``kind`` and
``dest``, so a duck-typed stand-in carrying those two can drive one; a
:class:`Network` takes real :class:`Flit` instances, whose cycles and
``packet_id`` its statistics read and stamp.

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
from .switch import Switch
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
    "Switch",
    "TrafficConfig",
    "TrafficGenerator",
    "Network",
    "build_run",
    "measure_point",
    "run_mesh_point",
    "NetworkStats",
]
