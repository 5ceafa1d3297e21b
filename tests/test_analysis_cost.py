"""Unit tests for the mesh-level cost model."""

import pytest

from repro.analysis import MeshCost, mesh_cost, mesh_cost_comparison
from repro.noc import Topology
from repro.tech import st012


class TestMeshCost:
    def test_link_count_4x4(self):
        cost = mesh_cost(st012(), Topology(4, 4), "I1")
        assert cost.n_links == 48
        assert cost.total_wires == 48 * 32

    def test_i3_wire_tally_includes_control(self):
        cost = mesh_cost(st012(), Topology(4, 4), "I3")
        assert cost.wires_per_link == 10
        data_only = mesh_cost(
            st012(), Topology(4, 4), "I3", count_control=False
        )
        assert data_only.wires_per_link == 8

    def test_circuit_area_uses_table1(self):
        cost = mesh_cost(st012(), Topology(2, 2), "I2")
        assert cost.circuit_area_um2 == pytest.approx(8 * 19_193.0)

    def test_wiring_area_scales_with_length(self):
        short = mesh_cost(st012(), Topology(4, 4), "I1", link_length_um=500)
        long = mesh_cost(st012(), Topology(4, 4), "I1", link_length_um=2000)
        assert long.wiring_area_um2 == pytest.approx(4 * short.wiring_area_um2)

    def test_power_uses_fig12_model(self):
        from repro.analysis import link_power_uw

        cost = mesh_cost(st012(), Topology(2, 2), "I3",
                         n_buffers=8, freq_mhz=300.0)
        per_link = link_power_uw(st012(), "I3", 8, 300.0, 0.5)
        assert cost.link_power_uw == pytest.approx(8 * per_link)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mesh_cost(st012(), Topology(2, 2), "I9")

    def test_totals(self):
        cost = mesh_cost(st012(), Topology(2, 2), "I1")
        assert cost.total_area_um2 == pytest.approx(
            cost.wiring_area_um2 + cost.circuit_area_um2
        )
        assert cost.total_power_mw == pytest.approx(
            cost.link_power_uw / 1000.0
        )


class TestComparison:
    def test_all_three_kinds(self):
        comparison = mesh_cost_comparison(st012(), Topology(4, 4))
        assert set(comparison) == {"I1", "I2", "I3"}

    def test_paper_tradeoff_holds_at_mesh_scale(self):
        """The serial links win wires/wiring-area/power, lose circuit
        area at the paper's 4-buffer point — Table 1 + Fig 10/13 summed
        over 48 links.  (At 8 buffers even the circuit area flips: each
        synchronous buffer costs 3966 µm² vs 40 µm² per repeater.)"""
        at4 = mesh_cost_comparison(st012(), Topology(4, 4),
                                   n_buffers=4, freq_mhz=300.0)
        assert at4["I3"].total_wires < at4["I1"].total_wires / 3
        assert at4["I3"].wiring_area_um2 < at4["I1"].wiring_area_um2 / 2
        assert at4["I3"].circuit_area_um2 > at4["I1"].circuit_area_um2
        # at the default 1 mm links the wiring saving already wins
        assert at4["I3"].total_area_um2 < at4["I1"].total_area_um2
        at8 = mesh_cost_comparison(st012(), Topology(4, 4),
                                   n_buffers=8, freq_mhz=300.0)
        assert at8["I3"].link_power_uw < 0.4 * at8["I1"].link_power_uw
        assert at8["I3"].circuit_area_um2 < at8["I1"].circuit_area_um2

    def test_crossover_wiring_dominates_at_length(self):
        """Beyond some wire length, the serial link's *total* area
        (wiring + circuit overhead) undercuts the synchronous link —
        the Fig 11 message."""
        tech = st012()
        topo = Topology(4, 4)
        short = mesh_cost_comparison(tech, topo, link_length_um=100)
        long = mesh_cost_comparison(tech, topo, link_length_um=3000)
        # at 100 µm the +20 % circuit area dominates: I1 is smaller
        assert short["I1"].total_area_um2 < short["I3"].total_area_um2
        # at 3 mm the 4× wiring area dominates: I3 is smaller
        assert long["I3"].total_area_um2 < long["I1"].total_area_um2


class TestHeterogeneousMesh:
    def test_per_link_override(self):
        """Long east-west rows get I3 links, the rest stay I1."""
        from repro.link.behavioral import derive_link_params
        from repro.noc import Network, Port

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
        from repro.link.behavioral import derive_link_params
        from repro.noc import (
            Network,
            Port,
            TrafficConfig,
            TrafficGenerator,
            reset_packet_ids,
        )

        reset_packet_ids()
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
        from repro.link.behavioral import derive_link_params
        from repro.noc import Network, Packet, reset_packet_ids

        reset_packet_ids()
        net = Network(Topology(2, 2), derive_link_params(st012(), "I1", 300))
        net.offer_packet(Packet(src=(0, 0), dest=(1, 0), length_flits=4))
        net.drain()
        util = net.link_utilization()
        used = [u for u in util.values() if u > 0]
        assert len(used) == 1  # only the (0,0)->EAST link carried flits
