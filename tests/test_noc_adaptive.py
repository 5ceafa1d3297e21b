"""Tests for the west-first adaptive routing extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Packet,
    Port,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    reset_packet_ids,
    west_first_permitted,
)
from repro.noc.switch import Switch, WestFirstSwitch
from repro.noc.topology import compile_west_first
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


class TestWestFirstPermitted:
    def test_west_destination_forces_west(self):
        topo = Topology(4, 4)
        assert west_first_permitted((3, 1), (0, 2), topo) == [Port.WEST]

    def test_adaptive_choice_east_north(self):
        topo = Topology(4, 4)
        ports = west_first_permitted((0, 0), (2, 2), topo)
        assert set(ports) == {Port.EAST, Port.NORTH}

    def test_adaptive_choice_east_south(self):
        topo = Topology(4, 4)
        ports = west_first_permitted((0, 3), (2, 0), topo)
        assert set(ports) == {Port.EAST, Port.SOUTH}

    def test_pure_vertical(self):
        topo = Topology(4, 4)
        assert west_first_permitted((1, 0), (1, 3), topo) == [Port.NORTH]

    def test_arrived(self):
        topo = Topology(4, 4)
        assert west_first_permitted((2, 2), (2, 2), topo) == [Port.LOCAL]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            west_first_permitted((0, 0), (9, 9), Topology(4, 4))

    @given(
        cols=st.integers(2, 6), rows=st.integers(2, 6), data=st.data()
    )
    @settings(deadline=None, max_examples=80)
    def test_no_turn_into_west(self, cols, rows, data):
        """The turn-model invariant: WEST is only ever permitted alone
        (a packet never turns *into* the west direction)."""
        topo = Topology(cols, rows)
        src = data.draw(st.tuples(st.integers(0, cols - 1),
                                  st.integers(0, rows - 1)))
        dest = data.draw(st.tuples(st.integers(0, cols - 1),
                                   st.integers(0, rows - 1)))
        ports = west_first_permitted(src, dest, topo)
        if Port.WEST in ports:
            assert ports == [Port.WEST]

    @given(cols=st.integers(2, 6), rows=st.integers(2, 6), data=st.data())
    @settings(deadline=None, max_examples=80)
    def test_every_permitted_port_is_productive(self, cols, rows, data):
        """Any permitted port strictly reduces the Manhattan distance."""
        topo = Topology(cols, rows)
        src = data.draw(st.tuples(st.integers(0, cols - 1),
                                  st.integers(0, rows - 1)))
        dest = data.draw(st.tuples(st.integers(0, cols - 1),
                                   st.integers(0, rows - 1)))
        before = abs(src[0] - dest[0]) + abs(src[1] - dest[1])
        for port in west_first_permitted(src, dest, topo):
            if port == Port.LOCAL:
                assert src == dest
                continue
            nxt = topo.neighbor(src, port)
            assert nxt is not None
            after = abs(nxt[0] - dest[0]) + abs(nxt[1] - dest[1])
            assert after == before - 1


class _Occupancy:
    """Stand-in link exposing only ``occupancy``."""

    def __init__(self, occupancy):
        self.occupancy = occupancy


class TestCompiledWestFirst:
    @pytest.mark.parametrize("rows", range(2, 7))
    @pytest.mark.parametrize("cols", range(2, 7))
    def test_agrees_with_permitted_min(self, cols, rows):
        """The closure picks what the west-first rule plus the
        least-occupancy, lowest-``value`` tie-break picks, reading the
        occupancies live (re-drawn between trials, small so ties are
        common)."""
        topo = Topology(cols, rows)
        links = {(src, port): _Occupancy(0) for src, port, _ in topo.links()}
        route = compile_west_first(topo, links)
        rng = random.Random(cols * 10 + rows)
        for trial in range(3):
            for link in links.values():
                link.occupancy = rng.randrange(3)
            for current in topo.nodes():
                for dest in topo.nodes():
                    ports = west_first_permitted(current, dest, topo)
                    expected = ports[0] if len(ports) == 1 else min(
                        ports,
                        key=lambda p: (links[(current, p)].occupancy,
                                       p.value),
                    )
                    assert route(current, dest) is expected, (
                        cols, rows, trial, current, dest)


class TestAdaptiveNetwork:
    def _run(self, routing, rate=0.2, seed=17, cycles=1200):
        topo = Topology(4, 4)
        net = Network(
            topo, derive_link_params(st012(), "I3", 300), routing=routing
        )
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=rate, seed=seed)
        )
        net.run(cycles, traffic)
        net.drain(max_cycles=300_000)
        return net

    def test_switch_kind_follows_routing(self):
        topo = Topology(3, 3)
        params = derive_link_params(st012(), "I1", 300)
        xy = Network(topo, params, routing="xy")
        adaptive = Network(topo, params, routing="west_first")
        assert type(xy.switches[(1, 1)]) is Switch
        assert type(adaptive.switches[(1, 1)]) is WestFirstSwitch

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            Network(Topology(2, 2), derive_link_params(st012(), "I1", 300),
                    routing="zigzag")

    def test_lossless_delivery(self):
        net = self._run("west_first")
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_single_packet_shortest_path(self):
        topo = Topology(4, 4)
        net = Network(topo, derive_link_params(st012(), "I1", 300),
                      routing="west_first")
        net.offer_packet(Packet(src=(0, 0), dest=(3, 3), length_flits=2))
        net.drain()
        # hops = Manhattan distance → total link traversals = 6 per flit
        total = sum(link.flits_delivered for link in net.links.values())
        assert total == 2 * 6

    def test_adaptive_spreads_load(self):
        """Many same-pair packets: the adaptive mesh uses more distinct
        links than dimension-ordered XY."""
        def used_links(routing):
            topo = Topology(4, 4)
            net = Network(topo, derive_link_params(st012(), "I1", 300),
                          routing=routing)
            for i in range(10):
                net.offer_packet(
                    Packet(src=(0, 0), dest=(3, 3), length_flits=4)
                )
            net.drain(max_cycles=100_000)
            return sum(
                1 for link in net.links.values() if link.flits_delivered
            )

        reset_packet_ids()
        xy_links = used_links("xy")
        reset_packet_ids()
        adaptive_links = used_links("west_first")
        assert adaptive_links >= xy_links

    def test_comparable_latency_to_xy(self):
        xy = self._run("xy")
        wf = self._run("west_first")
        assert wf.stats.mean_packet_latency == pytest.approx(
            xy.stats.mean_packet_latency, rel=0.35
        )

    def test_hotspot_benefits_from_adaptivity(self):
        """Around a hotspot, adaptive routing must not be (much) worse."""
        def run(routing):
            reset_packet_ids()
            topo = Topology(4, 4)
            net = Network(topo, derive_link_params(st012(), "I3", 300),
                          routing=routing)
            traffic = TrafficGenerator(
                topo,
                TrafficConfig(pattern="hotspot", hotspot=(2, 2),
                              hotspot_fraction=0.5, injection_rate=0.15,
                              seed=23),
            )
            net.run(1200, traffic)
            net.drain(max_cycles=300_000)
            return net.stats.mean_packet_latency

        assert run("west_first") <= run("xy") * 1.2
