"""Virtual-channel tests: per-VC FIFOs, locks, and interleaving."""

import pytest

from repro.link.behavioral import BehavioralLinkParams, TokenLink
from repro.link.behavioral import derive_link_params
from repro.noc import (
    Flit,
    FlitKind,
    Network,
    Packet,
    Port,
    Switch,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    next_hop,
    reset_packet_ids,
)
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


def make_vc_switch(n_vcs=2, position=(1, 1)):
    topo = Topology(3, 3)
    sw = Switch(position, lambda c, d: next_hop(c, d, topo),
                fifo_depth=4, n_vcs=n_vcs)
    params = BehavioralLinkParams("T", 1, 1.0, 16, 10, 300.0)
    for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
        sw.out_links[port] = TokenLink(params)
    return sw


def flit(pid, kind, vc, dest=(2, 1), seq=0):
    return Flit(packet_id=pid, kind=kind, src=(0, 1), dest=dest,
                seq=seq, vc=vc)


class TestVcStructure:
    def test_per_vc_fifos(self):
        sw = make_vc_switch(n_vcs=3)
        assert len(sw.inputs[Port.WEST]) == 3

    def test_vc_count_validated(self):
        topo = Topology(2, 2)
        with pytest.raises(ValueError):
            Switch((0, 0), lambda c, d: next_hop(c, d, topo), n_vcs=0)

    def test_accept_routes_to_vc_queue(self):
        sw = make_vc_switch(n_vcs=2)
        sw.accept(Port.WEST, flit(1, FlitKind.HEAD_TAIL, vc=1))
        assert sw.queue(Port.WEST, 0).empty
        assert not sw.queue(Port.WEST, 1).empty

    def test_out_of_range_vc_rejected(self):
        sw = make_vc_switch(n_vcs=2)
        with pytest.raises(ValueError):
            sw.accept(Port.WEST, flit(1, FlitKind.HEAD_TAIL, vc=5))

    def test_can_accept_per_vc(self):
        sw = make_vc_switch(n_vcs=2)
        for i in range(4):
            sw.accept(Port.WEST, flit(i, FlitKind.HEAD_TAIL, vc=0))
        assert not sw.can_accept(Port.WEST, 0)
        assert sw.can_accept(Port.WEST, 1)


class TestVcInterleaving:
    def test_two_packets_interleave_on_one_output(self):
        """Packets on different VCs share the EAST wire flit-by-flit —
        impossible with a single wormhole lane."""
        sw = make_vc_switch(n_vcs=2)
        east = sw.out_links[Port.EAST]
        # packet A on VC0 from WEST, packet B on VC1 from SOUTH
        for seq, kind in ((0, FlitKind.HEAD), (1, FlitKind.BODY),
                          (2, FlitKind.TAIL)):
            sw.accept(Port.WEST, flit(1, kind, vc=0, seq=seq))
            sw.accept(Port.SOUTH, flit(2, kind, vc=1, seq=seq))
        order = []
        for cycle in range(8):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f, c: None)
            if east.flits_sent > before:
                order.append(east._in_flight[-1][1].packet_id)
        assert sorted(order) == [1, 1, 1, 2, 2, 2]
        # genuine interleaving: the two packets alternate
        assert order[:4] in ([1, 2, 1, 2], [2, 1, 2, 1])

    def test_single_vc_blocks_instead(self):
        """Same scenario with one VC: packet B waits for A's tail."""
        sw = make_vc_switch(n_vcs=1)
        east = sw.out_links[Port.EAST]
        for seq, kind in ((0, FlitKind.HEAD), (1, FlitKind.BODY),
                          (2, FlitKind.TAIL)):
            sw.accept(Port.WEST, flit(1, kind, vc=0, seq=seq))
            sw.accept(Port.SOUTH, flit(2, kind, vc=0, seq=seq))
        order = []
        for cycle in range(8):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f, c: None)
            if east.flits_sent > before:
                order.append(east._in_flight[-1][1].packet_id)
        # one packet completes entirely before the other starts
        assert order[:3] in ([1, 1, 1], [2, 2, 2])

    def test_same_vc_still_locks(self):
        """Two packets on the SAME VC must not interleave even with
        multiple VCs configured."""
        sw = make_vc_switch(n_vcs=2)
        east = sw.out_links[Port.EAST]
        for seq, kind in ((0, FlitKind.HEAD), (1, FlitKind.TAIL)):
            sw.accept(Port.WEST, flit(1, kind, vc=1, seq=seq))
            sw.accept(Port.SOUTH, flit(2, kind, vc=1, seq=seq))
        order = []
        for cycle in range(6):
            for link in sw.out_links.values():
                link.begin_cycle()
            before = east.flits_sent
            sw.arbitrate_and_send(cycle, lambda f, c: None)
            if east.flits_sent > before:
                order.append(east._in_flight[-1][1].packet_id)
        assert order[:2] in ([1, 1], [2, 2])


class TestVcNetwork:
    def test_vc_mesh_lossless(self):
        topo = Topology(4, 4)
        net = Network(topo, derive_link_params(st012(), "I3", 300), n_vcs=2)
        traffic = TrafficGenerator(
            topo,
            TrafficConfig(injection_rate=0.2, seed=5, n_vcs=2),
        )
        net.run(1000, traffic)
        net.drain()
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_vcs_reduce_latency_under_load(self):
        """At high load, two VCs should not be worse than one (usually
        strictly better thanks to reduced HOL blocking)."""
        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I1", 300)
        results = {}
        for n_vcs in (1, 2):
            reset_packet_ids()
            net = Network(topo, params, n_vcs=n_vcs)
            traffic = TrafficGenerator(
                topo,
                TrafficConfig(injection_rate=0.35, seed=9, n_vcs=n_vcs),
            )
            net.run(2500, traffic)
            net.drain(max_cycles=300_000)
            results[n_vcs] = net.stats.mean_packet_latency
        assert results[2] <= results[1] * 1.05

    def test_packet_vc_rides_through(self):
        topo = Topology(3, 3)
        net = Network(topo, derive_link_params(st012(), "I2", 300), n_vcs=4)
        delivered = []
        packet = Packet(src=(0, 0), dest=(2, 2), length_flits=3, vc=3)
        net.offer_packet(packet)
        # intercept ejections
        original = net._eject

        def spy(f, cycle):
            delivered.append(f.vc)
            original(f, cycle)

        net._eject = spy
        net.drain()
        assert delivered == [3, 3, 3]
