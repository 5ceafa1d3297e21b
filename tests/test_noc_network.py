"""Integration tests for the mesh network simulator."""

import pytest

from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Packet,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    message_sequence,
    reset_packet_ids,
)
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


def make_network(kind="I1", mhz=300, cols=4, rows=4, torus=False):
    topo = Topology(cols, rows, torus=torus)
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


class TestManyPackets:
    def test_all_pairs_single_flit(self):
        net, topo = make_network(cols=3, rows=3)
        pairs = [
            (src, dst)
            for src in topo.nodes()
            for dst in topo.nodes()
            if src != dst
        ]
        for packet in message_sequence(topo, pairs, packet_length=1):
            net.offer_packet(packet)
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

    def test_torus_delivery(self):
        net, topo = make_network(torus=True)
        packet = Packet(src=(0, 0), dest=(3, 0), length_flits=2)
        net.offer_packet(packet)
        net.drain()
        assert net.stats.packets_ejected == 1
        # wrap link used (0,0)->WEST->(3,0)
        west = net.links[((0, 0), __import__(
            "repro.noc.topology", fromlist=["Port"]).Port.WEST)]
        assert west.flits_sent == 2


class TestWireAccounting:
    def test_total_wires_scale_with_link_kind(self):
        net_i1, _ = make_network(kind="I1")
        net_i3, _ = make_network(kind="I3")
        assert net_i1.total_wires == 32 * 48
        assert net_i3.total_wires == 10 * 48
        reduction = 1 - net_i3.total_wires / net_i1.total_wires
        assert reduction == pytest.approx(0.6875)  # 75 % on data wires


class TestLatencyVsLoad:
    def test_latency_grows_with_load(self):
        from repro.noc import latency_vs_load

        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I1", 300)
        sweep = latency_vs_load(
            topo, params, injection_rates=[0.02, 0.35],
            warmup_cycles=200, measure_cycles=800,
        )
        assert sweep[1]["mean_latency"] > sweep[0]["mean_latency"]

    def test_throughput_tracks_offered_load_below_saturation(self):
        from repro.noc import latency_vs_load

        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I3", 300)
        sweep = latency_vs_load(
            topo, params, injection_rates=[0.05],
            warmup_cycles=200, measure_cycles=1500,
        )
        assert sweep[0]["throughput"] == pytest.approx(0.05, rel=0.25)


class TestDrainTimeout:
    def test_drain_raises_when_stuck(self):
        net, topo = make_network()
        # congest one destination artificially by never stepping... instead
        # check timeout machinery with an absurd bound
        packet = Packet(src=(0, 0), dest=(3, 3), length_flits=2)
        net.offer_packet(packet)
        with pytest.raises(TimeoutError):
            net.drain(max_cycles=1)
