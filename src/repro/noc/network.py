"""The network simulator: switches + links + traffic, cycle by cycle.

A :class:`Network` instantiates one :class:`~repro.noc.switch.Switch`
per mesh node and one :class:`~repro.link.behavioral.TokenLink` per
directed inter-switch connection, all sharing the behavioural parameters
of the link implementation under study (I1 / I2 / I3).  This is the
system-level payoff of the paper: a mesh wired with 8-wire serialized
asynchronous links instead of 32-wire synchronous ones, at matching
network performance.

Each cycle:

1. links deliver matured flits into downstream input FIFOs (respecting
   FIFO space — backpressure);
2. the traffic generator injects new packets into per-node source
   queues; one flit per node per cycle may enter the LOCAL input;
3. every switch arbitrates and forwards at most one flit per output.

The cycle kernel is **event-driven**: instead of polling every link
twice and sorting every switch each cycle (the seed kernel, preserved
verbatim in :mod:`repro.noc.reference`), :meth:`Network.step` keeps

* ``_wheel`` — a timing wheel, ``cycle -> [links]``.  A link is filed
  exactly once while it has flits in flight, under the cycle its head
  flit matures: the send that makes an idle link busy files it, and
  phase 1 pops only the current cycle's bucket.  A link that delivered
  and still holds flits is filed again under its next head's cycle (or
  the next cycle, if that head has matured already), a backpressured
  one under the next cycle.  Each link carries its delivery target
  (the downstream lane's FIFO, its switch, the switch's node id and
  the lane's bit), so a delivery is one FIFO-space test against the
  depth read once per cycle, an append and the lane's bit set in the
  switch's occupancy mask.  Delivery order within a bucket does not
  matter: every link feeds its own input port, and phase 1 is the only
  phase that writes those lanes;
* ``_active_switches`` — ids of the switches with buffered flits (empty
  switches are never visited).  A delivery or injection adds a switch
  only when its occupancy mask goes from empty to non-empty, and the
  switching phase drops the switches it drained;
* ``_pending_sources`` — ids of the nodes whose source queues hold
  flits waiting to enter the network (``drain`` no longer rescans
  every queue).

Inside the kernel a node is an int id, its index in sorted-coordinate
order: the switches and source queues sit in lists indexed by id, and
the seed's sorted switch order is ``sorted()`` over ints (or the whole
id range when every switch is active), with no tuple comparisons.
Each input port has one lane, indexed by the port, so delivery and
injection append to that lane's FIFO and set its bit in the switch's
``_occ`` directly, reading nothing from the flit; the injection phase
counts the flits it moves into ``stats.flits_injected`` once per
cycle.  Phase 3 is one call of :func:`~repro.noc.switch.switch_cycle`,
which walks each active switch's occupied lanes into per-output
request bitmasks and serves them round-robin (see
:mod:`repro.noc.switch`); an XY switch caches its route per
destination, and a west-first switch
(:class:`~repro.noc.switch.WestFirstSwitch`) routes every head afresh
and rebuilds EAST's requests only when a head that chose NORTH or
SOUTH may now prefer EAST.
Rate credit is accrued only where it is read: a switch offers each flit
with :meth:`~repro.link.behavioral.TokenLink.try_send`, which replays
the link's skipped per-cycle accruals in one batch just before the
send, so no phase walks the links to accrue.  Per flit the cycle loop
makes two kinds of Python call: ``try_send`` and, for a flit leaving
on LOCAL, ``eject(flit, cycle)``, the network's ``_eject`` hook, which
is :meth:`~repro.noc.stats.NetworkStats.record_ejection` itself.
All of this is decision-identical to the seed kernel —
``tests/test_kernel_equivalence.py``
pins bit-identical statistics, link counters and traced routes across
routing modes, traffic patterns and mesh sizes;
``python -m repro bench`` measures the resulting speedup.

The statistics keep one per-packet table (see
:class:`~repro.noc.stats.NetworkStats`): :meth:`Network.offer_packet`
opens a packet's entry, and the ejection of its last flit frees it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, List, Optional, Set, Tuple,
)

from ..link.behavioral import BehavioralLinkParams, TokenLink
from ..obs.metrics import REGISTRY as _OBS
from .flit import Flit, Packet, reset_packet_ids
from .stats import NetworkStats, accepted_rate, mean_latency, p99_latency
from .switch import Switch, WestFirstSwitch, switch_cycle
from .topology import (
    Coord,
    Port,
    Topology,
    compile_next_hop,
    compile_west_first,
)
from .traffic import TrafficConfig, TrafficGenerator

_LOCAL = Port.LOCAL.index
_LOCAL_BIT = 1 << _LOCAL


class Network:
    """A mesh NoC with uniform or per-link parameters.

    ``link_params`` sets the default for every directed link;
    ``link_params_for(src, port, dst)`` (if given) may return a
    different :class:`BehavioralLinkParams` for specific links — e.g.
    serialized asynchronous links only on the long cross-die rows, a
    GALS mesh mixing clock domains (the ``gals-mesh`` scenario), or a
    fault-injection campaign degrading chosen links (the
    ``fault-injection`` scenario).  Returning None keeps the default.
    """

    def __init__(
        self,
        topology: Topology,
        link_params: BehavioralLinkParams,
        fifo_depth: int = 4,
        link_params_for: Optional[
            Callable[[Coord, Port, Coord], Optional[BehavioralLinkParams]]
        ] = None,
        routing: str = "xy",
    ) -> None:
        if routing not in ("xy", "west_first"):
            raise ValueError(
                f"unknown routing {routing!r}; expected 'xy' or 'west_first'"
            )
        self.topology = topology
        self.link_params = link_params
        self.routing = routing
        self.stats = NetworkStats()
        #: the switches' ejection callback, ``(flit, cycle)``; tests
        #: may wrap it
        self._eject: Callable[[Flit, int], None] = (
            self.stats.record_ejection
        )
        self.cycle = 0

        #: directed links keyed by (src_node, src_port)
        self.links: Dict[Tuple[Coord, Port], TokenLink] = {}
        link_dst: Dict[TokenLink, Tuple[Coord, Port]] = {}
        for src, port, dst in topology.links():
            params = link_params
            if link_params_for is not None:
                override = link_params_for(src, port, dst)
                if override is not None:
                    params = override
            link = TokenLink(params, name=f"link{src}{port.value}")
            self.links[(src, port)] = link
            link_dst[link] = (dst, port.opposite)

        if routing == "xy":
            # dimension-ordered; the compiled closure skips the
            # full-route construction of topology.next_hop
            route = compile_next_hop(topology)
            switch_cls = Switch
        else:
            # west-first adaptive: among the permitted productive ports,
            # steer towards the least-occupied outgoing link
            route = compile_west_first(topology, self.links)
            switch_cls = WestFirstSwitch
        self.switches: Dict[Coord, Switch] = {
            node: switch_cls(node, route, fifo_depth)
            for node in topology.nodes()
        }
        #: node coordinates by node id: the kernel names a node by its
        #: index in sorted-coordinate order, so the arbitration order is
        #: the ids' natural order
        self._node_order: Tuple[Coord, ...] = tuple(sorted(self.switches))
        node_id = {node: i for i, node in enumerate(self._node_order)}
        self._node_id: Dict[Coord, int] = node_id
        #: switches by node id
        self._switch_list: List[Switch] = [
            self.switches[node] for node in self._node_order
        ]
        #: every lane's FIFO depth, read once per cycle
        self._fifo_depth = fifo_depth
        #: timing wheel: cycle -> links whose head flit matures then;
        #: a link is filed exactly once while it has flits in flight
        self._wheel: Dict[int, List[TokenLink]] = {}
        for (src, port), link in self.links.items():
            self.switches[src].out_links[port] = link
            dst, dport = link_dst[link]
            switch = self.switches[dst]
            lane = dport.index
            link.target = (switch._lanes[lane].fifo, switch, node_id[dst],
                           1 << lane)
            link.wheel = self._wheel

        #: per-node source queues of flits waiting to enter the network
        self.source_queues: Dict[Coord, Deque[Flit]] = {
            node: deque() for node in topology.nodes()
        }
        #: the same source queues by node id
        self._source_list: List[Deque[Flit]] = [
            self.source_queues[node] for node in self._node_order
        ]
        #: each switch's LOCAL input FIFO by node id
        self._local_fifos: List[Deque[Flit]] = [
            switch._lanes[_LOCAL].fifo for switch in self._switch_list
        ]
        #: when True, every head flit records the switches it visits in
        #: ``self.routes[packet_id]`` (debug/observability aid)
        self.trace_routes: bool = False
        self.routes: Dict[int, list[Coord]] = {}

        # ------------------------------------------------------------------
        # event-driven kernel state (the timing wheel is built above)
        # ------------------------------------------------------------------
        #: ids of the nodes whose switches hold buffered flits
        self._active_switches: Set[int] = set()
        #: ids of the nodes with non-empty source queues
        self._pending_sources: Set[int] = set()

    # ------------------------------------------------------------------
    def offer_packet(self, packet: Packet) -> None:
        """Queue a packet for injection at its source node."""
        node_id = self._node_id
        node = node_id.get(packet.src)
        if node is None:
            raise ValueError(f"unknown source node {packet.src}")
        if packet.dest not in node_id:
            topology = self.topology
            raise ValueError(
                f"packet {packet.packet_id}: destination {packet.dest} is "
                f"outside the {topology.cols}x{topology.rows} mesh"
            )
        self.stats.open_packet(
            packet.packet_id, packet.length_flits, packet.created_cycle
        )
        self._source_list[node].extend(packet.flits())
        self._pending_sources.add(node)

    # ------------------------------------------------------------------
    def step(self, traffic: Optional[TrafficGenerator] = None) -> None:
        """Advance the network by one clock cycle."""
        now = self.cycle
        active_switches = self._active_switches
        depth = self._fifo_depth

        # 1. link transport — only the links whose head flit matures
        # now.  A link that still holds flits is filed again under its
        # next head's cycle, or under the next cycle if that head has
        # matured already or this one met a full lane (backpressure).
        wheel = self._wheel
        due = wheel.pop(now, None)
        if due is not None:
            later = now + 1
            for link in due:
                in_flight = link._in_flight
                fifo, switch, dst, lane_bit = link.target
                if len(fifo) < depth:
                    fifo.append(in_flight[0][1])
                    del in_flight[0]
                    link.flits_delivered += 1
                    occ = switch._occ
                    if not occ:
                        active_switches.add(dst)
                    switch._occ = occ | lane_bit
                    if not in_flight:
                        continue
                    ready = in_flight[0][0]
                    if ready < later:
                        ready = later
                else:
                    ready = later
                bucket = wheel.get(ready)
                if bucket is None:
                    wheel[ready] = [link]
                else:
                    bucket.append(link)

        # 2. traffic injection — only nodes with queued flits
        if traffic is not None:
            for packet in traffic.packets_for_cycle(now):
                self.offer_packet(packet)
        pending = self._pending_sources
        switch_list = self._switch_list
        if pending:
            sources = self._source_list
            local_fifos = self._local_fifos
            injected = 0
            for node in list(pending):
                fifo = local_fifos[node]
                if len(fifo) < depth:
                    source = sources[node]
                    fifo.append(source.popleft())
                    injected += 1
                    switch = switch_list[node]
                    occ = switch._occ
                    if not occ:
                        active_switches.add(node)
                    switch._occ = occ | _LOCAL_BIT
                    if not source:
                        pending.discard(node)
            self.stats.flits_injected += injected

        # 3. switching — only switches with buffered flits, in the
        # sorted-coordinate order the seed kernel used (node ids).  No
        # send reaches another switch's lane within the cycle, so every
        # head can be recorded before any switch moves
        if active_switches:
            if self.trace_routes:
                node_order = self._node_order
                for node in sorted(active_switches):
                    self._record_heads(node_order[node], switch_list[node])
            switch_cycle(switch_list, active_switches, now, self._eject)

        self.cycle = now + 1
        self.stats.cycles = self.cycle

    def _record_heads(self, node: Coord, switch: Switch) -> None:
        """Append ``node`` to the route of every head flit waiting here."""
        for queue in switch._lanes:
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
    ) -> NetworkStats:
        """Run ``cycles`` cycles of simulation."""
        obs_base = self._obs_totals() if _OBS.enabled else None
        for _ in range(cycles):
            self.step(traffic)
        if obs_base is not None and _OBS.enabled:
            self._obs_publish(obs_base, cycles)
        return self.stats

    def drain(self, max_cycles: int = 100_000) -> NetworkStats:
        """Run without new traffic until every in-flight flit ejects.

        The loop condition reuses the pending-source set instead of
        rescanning every source queue with ``any(...)`` each cycle.
        """
        obs_base = self._obs_totals() if _OBS.enabled else None
        waited = 0
        stats = self.stats
        while stats.in_flight_flits > 0 or self._pending_sources:
            self.step(None)
            waited += 1
            if waited > max_cycles:
                raise TimeoutError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({stats.in_flight_flits} flits stuck)"
                )
        if obs_base is not None and _OBS.enabled:
            self._obs_publish(obs_base, waited)
        return stats

    # ------------------------------------------------------------------
    # observability: plain-int counters summed at the coarse run/drain
    # boundaries only — the cycle loop never touches the registry.
    # Credit is accrued only when a flit is offered to a link, so
    # ``noc.credit_accruals`` sums, over links, the cycle each link's
    # credit was last caught up to (its last send attempt, plus one),
    # and ``noc.accrual_batches`` counts the send attempts that had
    # cycles to catch up (at most one per link per cycle).
    # ------------------------------------------------------------------
    _OBS_COUNTERS = (
        "noc.arbitration_fast",
        "noc.arbitration_conflicts",
        "noc.flits_routed",
        "noc.credit_accruals",
        "noc.accrual_batches",
        "noc.flits_delivered",
    )

    def _obs_totals(self) -> Tuple[int, ...]:
        """Current sums of the kernel's plain-int counters, in
        :data:`_OBS_COUNTERS` order."""
        arb_fast = arb_conflicts = routed = 0
        for switch in self.switches.values():
            arb_fast += switch.arbitration_fast
            arb_conflicts += switch.arbitration_conflicts
            routed += switch.flits_routed
        accruals = batches = delivered = 0
        for link in self.links.values():
            accruals += link._accruals
            batches += link._accrual_batches
            delivered += link.flits_delivered
        return (arb_fast, arb_conflicts, routed, accruals, batches,
                delivered)

    def _obs_publish(self, base: Tuple[int, ...], cycles: int) -> None:
        """Hand this run's counter deltas and activity levels to the
        registry in one bulk update."""
        for name, before, after in zip(
            self._OBS_COUNTERS, base, self._obs_totals()
        ):
            _OBS.counter(name).inc(after - before)
        _OBS.counter("noc.cycles").inc(cycles)
        for name, value in self.active_component_counts.items():
            _OBS.gauge(f"noc.{name}").set(value)

    # ------------------------------------------------------------------
    @property
    def total_wires(self) -> int:
        """Physical wires across all inter-switch links (cost metric)."""
        return sum(link.params.wire_count for link in self.links.values())

    @property
    def active_component_counts(self) -> Dict[str, int]:
        """Live sizes of the kernel's wheel and activity sets
        (observability); a busy link sits in the wheel exactly once."""
        return {
            "links_in_flight": sum(map(len, self._wheel.values())),
            "switches_buffered": len(self._active_switches),
            "sources_pending": len(self._pending_sources),
        }

    def link_utilization(self) -> Dict[Tuple[Coord, Port], float]:
        """Flits carried per cycle for every directed link (load map).

        One pass over the link table; ``flits_delivered`` is maintained
        incrementally by the timing-wheel delivery, so this is a pure
        read — no per-link polling.  (Division stays per-link:
        multiplying by a hoisted reciprocal changes the last ulp and
        would break bit-identity with the seed kernel.)
        """
        cycles = self.cycle
        if cycles == 0:
            return {key: 0.0 for key in self.links}
        return {
            key: link.flits_delivered / cycles
            for key, link in self.links.items()
        }


def build_run(
    network_cls: Callable[..., Network],
    topology: Topology,
    link_params: BehavioralLinkParams,
    injection_rate: float,
    pattern: str = "uniform",
    packet_length: int = 4,
    seed: int = 2008,
    fifo_depth: int = 4,
    routing: str = "xy",
    hotspot: Optional[Coord] = None,
    hotspot_fraction: float = 0.5,
    link_params_for: Optional[
        Callable[[Coord, Port, Coord], Optional[BehavioralLinkParams]]
    ] = None,
) -> Tuple[Network, TrafficGenerator]:
    """A fresh ``network_cls`` network and its seeded traffic generator.

    The one place a NoC run is set up: :func:`run_mesh_point`, both
    kernels of the ``repro bench`` NoC rows and the kernel-equivalence
    suite all build here.  Packet ids are reset first, so repeated
    builds are bit-for-bit reproducible within one process, and a
    hotspot pattern without a ``hotspot`` aims at the mesh centre.
    """
    reset_packet_ids()
    if pattern == "hotspot" and hotspot is None:
        # centre of the mesh: the worst-case convergence point
        hotspot = (topology.cols // 2, topology.rows // 2)
    network = network_cls(
        topology, link_params, fifo_depth=fifo_depth, routing=routing,
        link_params_for=link_params_for,
    )
    traffic = TrafficGenerator(
        topology,
        TrafficConfig(
            pattern=pattern,
            injection_rate=injection_rate,
            packet_length=packet_length,
            seed=seed,
            hotspot=hotspot,
            hotspot_fraction=hotspot_fraction,
        ),
    )
    return network, traffic


def measure_point(
    network: Network,
    traffic: TrafficGenerator,
    cycles: int,
    drain_max_cycles: int = 300_000,
) -> Dict[str, float]:
    """Run a freshly built ``network`` under ``traffic``: the NoC
    measurement protocol.

    The first ``cycles // 4`` traffic cycles warm the network up, the
    rest of ``cycles`` are the measurement window, and a drain then
    ejects every flit still in flight.  ``throughput`` (accepted
    traffic) counts the flits ejected in the window per node per window
    cycle, and the latencies cover the packets created in the window;
    the drain means none of them is censored.  The flit and packet
    counts cover the whole run.  Either kernel runs it: the frozen
    :class:`~repro.noc.reference.ReferenceNetwork` too.
    """
    warmup = cycles // 4
    window = cycles - warmup
    stats = network.stats
    network.run(warmup, traffic)
    ejected = stats.flits_ejected
    network.run(window, traffic)
    ejected = stats.flits_ejected - ejected
    network.drain(max_cycles=drain_max_cycles)
    latencies = [
        latency
        for latency, created in zip(stats.packet_latencies,
                                    stats.packet_created)
        if created >= warmup
    ]
    return {
        "offered_rate": traffic.config.injection_rate,
        "throughput": accepted_rate(
            ejected, network.topology.n_nodes, window
        ),
        "mean_latency": mean_latency(latencies),
        "p99_latency": p99_latency(latencies),
        "flits_injected": stats.flits_injected,
        "flits_ejected": stats.flits_ejected,
        "packets_ejected": stats.packets_ejected,
        "total_wires": network.total_wires,
    }


def run_mesh_point(
    topology: Topology,
    link_params: BehavioralLinkParams,
    injection_rate: float,
    cycles: int = 2000,
    drain_max_cycles: int = 300_000,
    **traffic: object,
) -> Dict[str, float]:
    """One fully-drained traffic run at a single operating point, the
    entry point every NoC scenario, example and test shares:
    :func:`build_run` (``traffic`` holds its keywords) then
    :func:`measure_point`."""
    network, generator = build_run(
        Network, topology, link_params, injection_rate, **traffic
    )
    return measure_point(network, generator, cycles, drain_max_cycles)
