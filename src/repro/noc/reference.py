"""Frozen seed-semantics NoC cycle kernel (differential-testing oracle).

The optimized kernel in :mod:`repro.noc.network`, :mod:`repro.noc.switch`
and :mod:`repro.link.behavioral` is *activity-driven*: it only touches
links with flits in flight, switches with buffered flits, and source
queues with pending injections.  This module preserves the original
straightforward kernel — every link polled twice per cycle, every switch
sorted and arbitrated per cycle, linear round-robin scans — exactly as
the seed implemented it.

It exists for two reasons:

* **equivalence gating** — ``tests/test_kernel_equivalence.py`` runs
  both kernels over a grid of routing modes × VC counts × traffic
  patterns × mesh sizes and asserts bit-identical statistics, per-link
  counters and traced routes.  Any divergence is a kernel bug.
* **speedup measurement** — ``python -m repro bench`` times both
  kernels on the same workload and reports cycles/sec and the ratio;
  the committed ``benchmarks/baseline_bench.json`` pins that ratio so
  CI catches performance regressions without depending on absolute
  machine speed.

Do not optimize this module; its value is that it stays simple and
obviously equal to the seed semantics.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..link.behavioral import BehavioralLinkParams
from .flit import Flit, Packet
from .topology import Coord, Port, Topology, next_hop, west_first_permitted
from .traffic import TrafficGenerator

#: an input lane: (input port, virtual channel)
Lane = Tuple[Port, int]


class ReferenceNetworkStats:
    """Seed :class:`~repro.noc.stats.NetworkStats` recorders, verbatim.

    The optimized kernel's stats recorders were rewritten on the hot
    path; the oracle keeps its own frozen copy so a recorder bug cannot
    hide by being shared between both kernels.
    """

    def __init__(self) -> None:
        self.cycles = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        self.packets_ejected = 0
        self.packet_latencies: List[int] = []
        self.packet_created: List[int] = []
        self._packet_progress: Dict[int, int] = {}
        self._packet_lengths: Dict[int, int] = {}
        self._packet_created: Dict[int, int] = {}

    def record_injection(self, flit: Flit, cycle: int,
                         packet_length: int, created_cycle: int) -> None:
        flit.injected_cycle = cycle
        self.flits_injected += 1
        self._packet_lengths.setdefault(flit.packet_id, packet_length)
        self._packet_created.setdefault(flit.packet_id, created_cycle)

    def record_ejection(self, flit: Flit, cycle: int) -> None:
        flit.ejected_cycle = cycle
        self.flits_ejected += 1
        pid = flit.packet_id
        seen = self._packet_progress.get(pid, 0) + 1
        self._packet_progress[pid] = seen
        if seen == self._packet_lengths.get(pid, -1):
            self.packets_ejected += 1
            created = self._packet_created.get(pid, flit.injected_cycle)
            self.packet_latencies.append(cycle - created)
            self.packet_created.append(created)
            del self._packet_progress[pid]
            del self._packet_lengths[pid]
            del self._packet_created[pid]

    @property
    def mean_packet_latency(self) -> float:
        if not self.packet_latencies:
            return math.nan
        return sum(self.packet_latencies) / len(self.packet_latencies)

    @property
    def p99_packet_latency(self) -> float:
        if not self.packet_latencies:
            return math.nan
        ordered = sorted(self.packet_latencies)
        idx = min(len(ordered) - 1, int(0.99 * len(ordered)))
        return float(ordered[idx])

    @property
    def in_flight_flits(self) -> int:
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


class ReferenceTokenLink:
    """Seed :class:`~repro.link.behavioral.TokenLink` semantics."""

    def __init__(self, params: BehavioralLinkParams,
                 name: str = "link") -> None:
        self.params = params
        self.name = name
        self._in_flight: list[tuple[int, object]] = []
        self._rate_credit = 0.0
        self.flits_sent = 0
        self.flits_delivered = 0

    def begin_cycle(self) -> None:
        self._rate_credit = min(
            self._rate_credit + self.params.rate_flits_per_cycle,
            1.0 + self.params.rate_flits_per_cycle,
        )

    def can_send(self) -> bool:
        return (
            self._rate_credit >= 1.0
            and len(self._in_flight) < self.params.capacity_flits
        )

    def try_send(self, flit: object, now_cycle: int) -> bool:
        if not self.can_send():
            return False
        self._rate_credit -= 1.0
        self._in_flight.append(
            (now_cycle + self.params.latency_cycles, flit)
        )
        self.flits_sent += 1
        return True

    def deliverable(self, now_cycle: int) -> bool:
        return bool(self._in_flight) and self._in_flight[0][0] <= now_cycle

    def peek(self) -> object:
        return self._in_flight[0][1]

    def pop(self, now_cycle: int) -> object:
        if not self.deliverable(now_cycle):
            raise RuntimeError(f"{self.name}: no deliverable flit")
        _ready, flit = self._in_flight.pop(0)
        self.flits_delivered += 1
        return flit

    @property
    def occupancy(self) -> int:
        return len(self._in_flight)


class _ReferenceInputQueue:
    """Seed input-lane FIFO with wormhole route state."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.fifo: Deque[Flit] = deque()
        self.locked_output: Optional[Port] = None

    @property
    def full(self) -> bool:
        return len(self.fifo) >= self.depth

    @property
    def empty(self) -> bool:
        return not self.fifo

    def push(self, flit: Flit) -> None:
        if self.full:
            raise RuntimeError("push into full input queue")
        self.fifo.append(flit)

    def head(self) -> Flit:
        return self.fifo[0]

    def pop(self) -> Flit:
        return self.fifo.popleft()


class ReferenceSwitch:
    """Seed :class:`~repro.noc.switch.Switch` arbitration, verbatim.

    Rebuilds the lane list per call, rescans every lane for every
    output port, and updates the round-robin pointer with a linear
    ``list.index`` — exactly the costs the optimized switch removes.
    """

    def __init__(
        self,
        position: Coord,
        route_fn: Callable[[Coord, Coord], Port],
        fifo_depth: int = 4,
        n_vcs: int = 1,
        name: Optional[str] = None,
    ) -> None:
        self.position = position
        self.route_fn = route_fn
        self.name = name or f"refsw{position}"
        self.n_vcs = n_vcs
        self.inputs: Dict[Port, List[_ReferenceInputQueue]] = {
            port: [_ReferenceInputQueue(fifo_depth) for _ in range(n_vcs)]
            for port in Port
        }
        self.output_owner: Dict[Tuple[Port, int], Optional[Lane]] = {
            (port, vc): None for port in Port for vc in range(n_vcs)
        }
        self._rr: Dict[Port, int] = {port: 0 for port in Port}
        self.out_links: Dict[Port, object] = {}
        self.flits_routed = 0
        self.arbitration_conflicts = 0

    def queue(self, port: Port, vc: int = 0) -> _ReferenceInputQueue:
        return self.inputs[port][vc]

    def can_accept(self, port: Port, vc: int = 0) -> bool:
        return not self.inputs[port][vc].full

    def accept(self, port: Port, flit: Flit) -> None:
        vc = getattr(flit, "vc", 0)
        if not (0 <= vc < self.n_vcs):
            raise ValueError(
                f"{self.name}: flit carries VC {vc} but switch has "
                f"{self.n_vcs} VC(s)"
            )
        self.inputs[port][vc].push(flit)

    def _lanes(self) -> List[Lane]:
        return [(port, vc) for port in Port for vc in range(self.n_vcs)]

    def _desired_output(self, lane: Lane) -> Optional[Port]:
        queue = self.inputs[lane[0]][lane[1]]
        if queue.empty:
            return None
        flit = queue.head()
        if flit.kind.opens_route:
            return self.route_fn(self.position, flit.dest)
        return queue.locked_output

    def arbitrate_and_send(
        self,
        now_cycle: int,
        eject: Callable[[Flit], None],
    ) -> int:
        moved = 0
        lanes = self._lanes()
        for out_port in Port:
            candidates: List[Lane] = []
            for lane in lanes:
                desired = self._desired_output(lane)
                if desired != out_port:
                    continue
                queue = self.inputs[lane[0]][lane[1]]
                flit = queue.head()
                vc = getattr(flit, "vc", 0)
                if flit.kind.opens_route:
                    owner = self.output_owner[(out_port, vc)]
                    if owner is not None and owner != lane:
                        continue
                elif queue.locked_output != out_port:
                    continue
                candidates.append(lane)

            if not candidates:
                continue
            if len(candidates) > 1:
                self.arbitration_conflicts += 1

            start = self._rr[out_port]
            pick: Optional[Lane] = None
            for offset in range(len(lanes)):
                lane = lanes[(start + offset) % len(lanes)]
                if lane in candidates:
                    pick = lane
                    break
            assert pick is not None
            queue = self.inputs[pick[0]][pick[1]]
            flit = queue.head()

            if out_port == Port.LOCAL:
                queue.pop()
                self._finish_flit(queue, pick, out_port, flit)
                eject(flit)
                moved += 1
                self._rr[out_port] = (lanes.index(pick) + 1) % len(lanes)
                continue

            link = self.out_links.get(out_port)
            if link is None:
                raise RuntimeError(
                    f"{self.name}: no link attached on {out_port}"
                )
            if link.try_send(flit, now_cycle):
                queue.pop()
                self._finish_flit(queue, pick, out_port, flit)
                moved += 1
                self._rr[out_port] = (lanes.index(pick) + 1) % len(lanes)
        self.flits_routed += moved
        return moved

    def _finish_flit(self, queue: _ReferenceInputQueue, lane: Lane,
                     out_port: Port, flit: Flit) -> None:
        vc = getattr(flit, "vc", 0)
        if flit.kind.opens_route:
            self.output_owner[(out_port, vc)] = lane
            queue.locked_output = out_port
        if flit.kind.closes_route:
            self.output_owner[(out_port, vc)] = None
            queue.locked_output = None

    @property
    def buffered_flits(self) -> int:
        return sum(
            len(q.fifo) for queues in self.inputs.values() for q in queues
        )


class ReferenceNetwork:
    """Seed :class:`~repro.noc.network.Network` cycle loop, verbatim.

    Every cycle iterates every link twice (credit accrual, then
    delivery polling), scans every source queue, and ``sorted()``-s the
    full switch dict before arbitration — the full-mesh work the
    optimized kernel replaces with active sets.
    """

    def __init__(
        self,
        topology: Topology,
        link_params: BehavioralLinkParams,
        fifo_depth: int = 4,
        link_params_for: Optional[
            Callable[[Coord, Port, Coord], Optional[BehavioralLinkParams]]
        ] = None,
        n_vcs: int = 1,
        routing: str = "xy",
    ) -> None:
        if routing not in ("xy", "west_first"):
            raise ValueError(
                f"unknown routing {routing!r}; expected 'xy' or 'west_first'"
            )
        self.topology = topology
        self.link_params = link_params
        self.n_vcs = n_vcs
        self.routing = routing
        self.stats = ReferenceNetworkStats()
        self.cycle = 0

        if routing == "xy":

            def route(current: Coord, dest: Coord) -> Port:
                return next_hop(current, dest, topology)

        else:

            def route(current: Coord, dest: Coord) -> Port:
                ports = west_first_permitted(current, dest, topology)
                if len(ports) == 1:
                    return ports[0]
                return min(
                    ports,
                    key=lambda p: (
                        self.links[(current, p)].occupancy,
                        p.value,
                    ),
                )

        self.switches: Dict[Coord, ReferenceSwitch] = {
            node: ReferenceSwitch(node, route, fifo_depth, n_vcs)
            for node in topology.nodes()
        }
        self.links: Dict[Tuple[Coord, Port], ReferenceTokenLink] = {}
        self._link_dst: Dict[Tuple[Coord, Port], Tuple[Coord, Port]] = {}
        for src, port, dst in topology.links():
            key = (src, port)
            params = link_params
            if link_params_for is not None:
                override = link_params_for(src, port, dst)
                if override is not None:
                    params = override
            link = ReferenceTokenLink(params, name=f"link{src}{port.value}")
            self.links[key] = link
            self._link_dst[key] = (dst, port.opposite)
            self.switches[src].out_links[port] = link

        self.source_queues: Dict[Coord, Deque[Flit]] = {
            node: deque() for node in topology.nodes()
        }
        self._packet_meta: Dict[int, Tuple[int, int]] = {}
        self.trace_routes: bool = False
        self.routes: Dict[int, list[Coord]] = {}

    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> None:
        if packet.src not in self.source_queues:
            raise ValueError(f"unknown source node {packet.src}")
        self._packet_meta[packet.packet_id] = (
            packet.length_flits,
            packet.created_cycle,
        )
        self.source_queues[packet.src].extend(packet.flits())

    # ------------------------------------------------------------------
    def step(self, traffic: Optional[TrafficGenerator] = None) -> None:
        now = self.cycle

        # 1. link transport
        for key, link in self.links.items():
            link.begin_cycle()
        for key, link in self.links.items():
            if not link.deliverable(now):
                continue
            dst_node, dst_port = self._link_dst[key]
            switch = self.switches[dst_node]
            flit = link.peek()
            if switch.can_accept(dst_port, getattr(flit, "vc", 0)):
                switch.accept(dst_port, link.pop(now))

        # 2. traffic injection
        if traffic is not None:
            for packet in traffic.packets_for_cycle(now):
                self.offer_packet(packet)
        for node, queue in self.source_queues.items():
            if not queue:
                continue
            switch = self.switches[node]
            if switch.can_accept(Port.LOCAL, getattr(queue[0], "vc", 0)):
                flit = queue.popleft()
                length, created = self._packet_meta[flit.packet_id]
                self.stats.record_injection(flit, now, length, created)
                switch.accept(Port.LOCAL, flit)

        # 3. switching
        for node in sorted(self.switches):
            switch = self.switches[node]
            if self.trace_routes:
                self._record_heads(node, switch)
            switch.arbitrate_and_send(now, self._eject)

        self.cycle += 1
        self.stats.cycles = self.cycle

    def _eject(self, flit: Flit) -> None:
        self.stats.record_ejection(flit, self.cycle)

    def _record_heads(self, node: Coord, switch: ReferenceSwitch) -> None:
        for queues in switch.inputs.values():
            for queue in queues:
                if queue.empty:
                    continue
                flit = queue.head()
                if not flit.kind.opens_route:
                    continue
                route = self.routes.setdefault(flit.packet_id, [])
                if not route or route[-1] != node:
                    route.append(node)

    # ------------------------------------------------------------------
    def run(
        self,
        cycles: int,
        traffic: Optional[TrafficGenerator] = None,
    ) -> ReferenceNetworkStats:
        for _ in range(cycles):
            self.step(traffic)
        return self.stats

    def drain(self, max_cycles: int = 100_000) -> ReferenceNetworkStats:
        waited = 0
        while self.stats.in_flight_flits > 0 or any(
            q for q in self.source_queues.values()
        ):
            self.step(None)
            waited += 1
            if waited > max_cycles:
                raise TimeoutError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.stats.in_flight_flits} flits stuck)"
                )
        return self.stats

    # ------------------------------------------------------------------
    @property
    def total_wires(self) -> int:
        return sum(link.params.wire_count for link in self.links.values())

    def link_utilization(self) -> Dict[Tuple[Coord, Port], float]:
        if self.cycle == 0:
            return {key: 0.0 for key in self.links}
        return {
            key: link.flits_delivered / self.cycle
            for key, link in self.links.items()
        }

