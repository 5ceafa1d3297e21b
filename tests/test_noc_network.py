"""Integration tests for the mesh network simulator."""

import sys
from collections import Counter

import pytest

from repro.link.behavioral import (
    BehavioralLinkParams,
    TokenLink,
    derive_link_params,
)
from repro.noc import (
    Network,
    NetworkStats,
    Packet,
    Port,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    build_run,
    reset_packet_ids,
    run_mesh_point,
)
from repro.noc.reference import ReferenceNetwork
from repro.noc.switch import Switch, _RouteCache, round_robin_bit
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


def make_network(kind="I1", mhz=300, cols=4, rows=4):
    topo = Topology(cols, rows)
    params = derive_link_params(st012(), kind, mhz)
    return Network(topo, params), topo


class TestSinglePacket:
    def test_corner_to_corner(self):
        net, topo = make_network()
        packet = Packet(src=(0, 0), dest=(3, 3), length_flits=4)
        net.offer_packet(packet)
        net.drain()
        assert net.stats.flits_ejected == 4
        assert net.stats.packets_ejected == 1

    def test_neighbor_delivery_latency(self):
        """One hop: local->switch, switch traversal, link, eject."""
        net, topo = make_network(kind="I1")
        packet = Packet(src=(0, 0), dest=(1, 0), length_flits=1)
        net.offer_packet(packet)
        net.drain()
        lat = net.stats.packet_latencies[0]
        # at least the 5-cycle link latency, plus bounded switching time
        assert 5 <= lat <= 12

    def test_self_is_never_routed(self):
        """XY routing ejects immediately at the destination switch."""
        net, topo = make_network()
        packet = Packet(src=(2, 2), dest=(2, 2), length_flits=1)
        net.offer_packet(packet)
        net.drain()
        assert net.stats.flits_ejected == 1
        # no inter-switch link carried it
        assert all(link.flits_sent == 0 for link in net.links.values())

    def test_unknown_source_rejected(self):
        net, topo = make_network()
        with pytest.raises(ValueError):
            net.offer_packet(Packet(src=(9, 9), dest=(0, 0), length_flits=1))

    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_out_of_bounds_destination_rejected_at_offer(self, routing):
        topo = Topology(3, 3)
        net = Network(topo, derive_link_params(st012(), "I1", 300),
                      routing=routing)
        packet = Packet(src=(0, 0), dest=(5, 0), length_flits=1)
        with pytest.raises(ValueError, match=(
            rf"packet {packet.packet_id}: destination \(5, 0\)"
        )):
            net.offer_packet(packet)
        assert not net.source_queues[(0, 0)]


class TestPacketTable:
    def test_one_entry_per_unfinished_packet_freed_at_ejection(self):
        net, topo = make_network(cols=3, rows=3)
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.2, seed=5)
        )
        net.run(300, traffic)
        stats = net.stats
        offered = traffic.packets_generated
        assert len(stats._packets) == offered - stats.packets_ejected > 0
        net.drain()
        assert stats._packets == {}
        assert stats.packets_ejected == offered


class TestManyPackets:
    def test_all_pairs_single_flit(self):
        net, topo = make_network(cols=3, rows=3)
        pairs = [
            (src, dst)
            for src in topo.nodes()
            for dst in topo.nodes()
            if src != dst
        ]
        for src, dest in pairs:
            net.offer_packet(Packet(src=src, dest=dest, length_flits=1))
        net.drain()
        assert net.stats.packets_ejected == len(pairs)

    def test_wormhole_packets_arrive_intact(self):
        net, topo = make_network()
        packets = [
            Packet(src=(0, 0), dest=(3, 3), length_flits=6),
            Packet(src=(3, 0), dest=(0, 3), length_flits=6),
            Packet(src=(0, 3), dest=(3, 0), length_flits=6),
        ]
        for p in packets:
            net.offer_packet(p)
        net.drain()
        assert net.stats.packets_ejected == 3
        assert net.stats.flits_ejected == 18

    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    def test_uniform_traffic_all_delivered(self, kind):
        net, topo = make_network(kind=kind)
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.1, seed=11)
        )
        net.run(800, traffic)
        net.drain()
        assert net.stats.flits_injected > 0
        assert net.stats.flits_ejected == net.stats.flits_injected


class TestHeterogeneousMesh:
    def test_per_link_override(self):
        """Long east-west rows get I3 links, the rest stay I1."""
        tech = st012()
        i1 = derive_link_params(tech, "I1", 300)
        i3 = derive_link_params(tech, "I3", 300)

        def chooser(src, port, dst):
            return i3 if port in (Port.EAST, Port.WEST) else None

        net = Network(Topology(4, 4), i1, link_params_for=chooser)
        east_west = sum(
            1 for (src, port), link in net.links.items()
            if link.params.kind == "I3"
        )
        assert east_west == 24  # 2 × 3 × 4 horizontal directed links
        uniform = Network(Topology(4, 4), i1)
        assert net.total_wires < uniform.total_wires

    def test_heterogeneous_mesh_delivers(self):
        tech = st012()
        i1 = derive_link_params(tech, "I1", 300)
        i2 = derive_link_params(tech, "I2", 300)
        topo = Topology(4, 4)
        net = Network(
            topo, i1,
            link_params_for=lambda s, p, d: i2 if p == Port.NORTH else None,
        )
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.1, seed=13)
        )
        net.run(800, traffic)
        net.drain()
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_link_utilization_map(self):
        net = Network(Topology(2, 2), derive_link_params(st012(), "I1", 300))
        net.offer_packet(Packet(src=(0, 0), dest=(1, 0), length_flits=4))
        net.drain()
        used = [key for key, link in net.links.items()
                if link.flits_delivered]
        assert used == [((0, 0), Port.EAST)]  # the only link carrying flits


class TestWireAccounting:
    def test_total_wires_scale_with_link_kind(self):
        net_i1, _ = make_network(kind="I1")
        net_i3, _ = make_network(kind="I3")
        assert net_i1.total_wires == 32 * 48
        assert net_i3.total_wires == 10 * 48
        reduction = 1 - net_i3.total_wires / net_i1.total_wires
        assert reduction == pytest.approx(0.6875)  # 75 % on data wires


class TestLatencyVsLoad:
    """Load-latency behaviour of ``run_mesh_point``'s measurement
    window: the first quarter of ``cycles`` warms up, the rest is
    measured, and the drain after it adds no cycles to the window."""

    def test_latency_grows_with_load(self):
        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I1", 300)
        low, high = (run_mesh_point(topo, params, rate, cycles=1000)
                     for rate in (0.02, 0.35))
        assert high["mean_latency"] > low["mean_latency"]

    def test_throughput_tracks_offered_load_below_saturation(self):
        point = run_mesh_point(
            Topology(4, 4), derive_link_params(st012(), "I3", 300), 0.05,
            cycles=2000,
        )
        assert point["throughput"] == pytest.approx(0.05, rel=0.25)

    @pytest.mark.parametrize("kind", ["I1", "I3"])
    def test_accepted_is_not_diluted_by_the_drain(self, kind):
        """An 8x8 mesh at 0.25 over 800 cycles delivers every flit, so
        accepted must read the injection rate whatever the drain costs
        (dividing by traffic plus drain cycles read 0.021 low on I1 and
        0.014 low on I3)."""
        point = run_mesh_point(
            Topology(8, 8), derive_link_params(st012(), kind, 300), 0.25,
            cycles=800,
        )
        assert point["flits_ejected"] == point["flits_injected"]
        injected = point["flits_injected"] / (64 * 800)
        assert abs(point["throughput"] - injected) <= 0.01

    def test_warmup_is_excluded_from_the_report(self):
        """Only the window counts: the flits that eject between its
        edges, over its cycles, and the packets created in it, each
        timed to its tail's ejection."""
        topo = Topology(3, 3)
        params = derive_link_params(st012(), "I2", 300)
        cycles, rate, seed = 550, 0.2, 4
        point = run_mesh_point(topo, params, rate, cycles=cycles, seed=seed)

        warmup = cycles // 4
        net, traffic = build_run(Network, topo, params, rate, seed=seed)
        created, tails = {}, {}
        offer, eject = net.offer_packet, net._eject

        def spy_offer(packet):
            created[packet.packet_id] = packet.created_cycle
            offer(packet)

        def spy_eject(flit, cycle):
            if flit.kind.closes_route:
                tails[flit.packet_id] = net.cycle
            eject(flit, cycle)

        net.offer_packet, net._eject = spy_offer, spy_eject
        net.run(warmup, traffic)
        at_warmup = net.stats.flits_ejected
        net.run(cycles - warmup, traffic)
        in_window = net.stats.flits_ejected - at_warmup
        net.drain()
        window = sorted(tails[pid] - created[pid]
                        for pid in created if created[pid] >= warmup)
        assert window and len(window) < len(created)
        assert point["throughput"] == (
            in_window / ((cycles - warmup) * topo.n_nodes)
        )
        assert point["mean_latency"] == sum(window) / len(window)
        assert point["p99_latency"] == window[int(0.99 * len(window))]


class TestDrainTimeout:
    def test_drain_raises_when_stuck(self):
        net, topo = make_network()
        # congest one destination artificially by never stepping... instead
        # check timeout machinery with an absurd bound
        packet = Packet(src=(0, 0), dest=(3, 3), length_flits=2)
        net.offer_packet(packet)
        with pytest.raises(TimeoutError):
            net.drain(max_cycles=1)


#: a slow link: one flit per ten cycles
SLOW = BehavioralLinkParams(
    kind="slow", latency_cycles=2, rate_flits_per_cycle=0.1,
    capacity_flits=2, wire_count=10, serial_ceiling_mflits=30.0,
)


@pytest.mark.parametrize("kernel", [Network, ReferenceNetwork],
                         ids=["Network", "ReferenceNetwork"])
class TestTimingWheel:
    """Link delivery when the downstream lane is full, on the kernel
    that files busy links in a timing wheel and on the frozen one that
    polls every link every cycle."""

    def _blocked_network(self, kernel):
        """A 2x2 mesh where packets from (0, 0) to (1, 0) wait at
        (1, 0)'s WEST lane behind a 6-flit packet from (1, 1) that
        holds the LOCAL output while it trickles in over a slow link."""
        def slow_in(src, port, dst):
            return SLOW if (src, dst) == ((1, 1), (1, 0)) else None

        net = kernel(Topology(2, 2), derive_link_params(st012(), "I1", 300),
                     link_params_for=slow_in)
        blocker = Packet(src=(1, 1), dest=(1, 0), length_flits=6)
        net.offer_packet(blocker)
        return net, blocker

    def test_blocked_head_resumes_one_flit_per_cycle_in_order(self, kernel):
        net, blocker = self._blocked_network(kernel)
        link = net.links[((0, 0), Port.EAST)]
        ejected = []
        eject = net._eject

        def spy(flit, *cycle):
            # the frozen kernel ejects with the flit alone
            ejected.append((flit.packet_id, flit.seq))
            eject(flit, *cycle)

        net._eject = spy
        net.run(15)
        victims = [Packet(src=(0, 0), dest=(1, 0), length_flits=4)
                   for _ in range(3)]
        for packet in victims:
            net.offer_packet(packet)
        # per cycle: (flits delivered, flits matured in the link before)
        trace = []
        for _ in range(200):
            now = net.cycle
            matured = sum(1 for ready, _ in link._in_flight if ready <= now)
            before = link.flits_delivered
            net.step()
            trace.append((link.flits_delivered - before, matured))
            if not (net.stats.in_flight_flits
                    or any(net.source_queues.values())):
                break
        assert net.stats.in_flight_flits == 0, "flits stuck in the network"

        # the longest stall with a matured head: the lane stays full
        stall_end, stall = 0, 0
        run = 0
        for cycle, (delivered, matured) in enumerate(trace):
            run = run + 1 if matured and not delivered else 0
            if run > stall:
                stall_end, stall = cycle, run
        assert stall >= 30
        backlog = trace[stall_end][1]
        assert backlog == link.params.capacity_flits  # all matured behind
        resumed = trace[stall_end + 1:stall_end + 1 + backlog]
        assert resumed == [(1, backlog - i) for i in range(backlog)]

        victim_flits = [(packet.packet_id, seq)
                        for packet in victims for seq in range(4)]
        assert [entry for entry in ejected
                if entry[0] != blocker.packet_id] == victim_flits
        assert link.flits_sent == link.flits_delivered == len(victim_flits)
        assert net.stats.packets_ejected == 1 + len(victims)

    def test_drain_leaves_no_link_busy(self, kernel):
        net, _blocker = self._blocked_network(kernel)
        traffic = TrafficGenerator(
            net.topology, TrafficConfig(injection_rate=0.3, seed=8)
        )
        net.run(200, traffic)
        net.drain()
        assert all(not link._in_flight for link in net.links.values())
        assert all(link.flits_sent == link.flits_delivered
                   for link in net.links.values())
        if kernel is Network:
            assert net._wheel == {}
            assert net.active_component_counts["links_in_flight"] == 0


#: Python calls into ``repro.noc`` and ``repro.link`` per offered
#: packet: the generator's destination draw, the packet's ``__init__``,
#: id default and ``__post_init__``, ``offer_packet``, ``open_packet``,
#: ``flits()`` with ``_kinds`` (and its list comprehension, which is a
#: call of its own before Python 3.12 inlines comprehensions), and one
#: flit ``__init__`` per flit (four)
CALLS_PER_PACKET = 13 if sys.version_info < (3, 12) else 12
#: per cycle: ``Network.step``, ``packets_for_cycle`` and the one
#: switching call
CALLS_PER_CYCLE = 3
#: EAST request rebuilds of the seeded west-first run below
WEST_FIRST_REBUILDS = 8


class TestCallBudget:
    """The cycle loop makes Python calls only per cycle, per offered
    packet, per link send, per ejection and per route decision: a call
    per switch, per delivery or per injection would add thousands."""

    CYCLES = 300

    def _count_calls(self, routing):
        net, traffic = build_run(
            Network, Topology(4, 4), derive_link_params(st012(), "I3", 300),
            0.3, routing=routing, seed=5,
        )
        counts = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get(
                    "__name__", "").startswith(("repro.noc", "repro.link")):
                counts[frame.f_code] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            net.run(self.CYCLES, traffic)
        finally:
            sys.setprofile(previous)
        return net, traffic, counts

    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_calls_per_cycle(self, routing):
        net, traffic, counts = self._count_calls(routing)
        stats = net.stats
        sends = counts.pop(TokenLink.try_send.__code__)
        assert counts.pop(NetworkStats.record_ejection.__code__) \
            == stats.flits_ejected
        assert counts.pop(round_robin_bit.__code__, 0) == sum(
            switch.arbitration_conflicts for switch in net._switch_list)
        # route decisions: the XY cache's misses, and every west-first
        # head with the link occupancies its choice reads
        routing_calls = sum(
            counts.pop(code, 0) for code in (
                net._switch_list[0].route_fn.__code__,
                _RouteCache.__missing__.__code__,
                TokenLink.occupancy.fget.__code__,
            )
        )
        assert counts.pop(Switch._requests_for.__code__, 0) == (
            WEST_FIRST_REBUILDS if routing == "west_first" else 0)
        packets = traffic.packets_generated
        assert packets > 300 and stats.flits_ejected > 1000
        assert sends > 3000 and routing_calls > 200
        # what is left: Network.run once, then a fixed count per cycle
        assert sum(counts.values()) == (
            CALLS_PER_PACKET * packets + CALLS_PER_CYCLE * self.CYCLES + 1
        ), sorted((code.co_name, n) for code, n in counts.items())
