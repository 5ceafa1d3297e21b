"""System-level integration: meshes wired with each link implementation."""

import pytest

from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Packet,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    reset_packet_ids,
    run_mesh_point,
)
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


class TestMeshParity:
    """The paper's system-level implication: a mesh on 8-wire serialized
    async links performs like one on 32-wire synchronous links."""

    def _run(self, kind, rate=0.08, mhz=300, cycles=1500, seed=42):
        topo = Topology(4, 4)
        params = derive_link_params(st012(), kind, mhz)
        net = Network(topo, params)
        traffic = TrafficGenerator(
            topo,
            TrafficConfig(injection_rate=rate, seed=seed),
        )
        net.run(cycles, traffic)
        net.drain()
        return net

    @pytest.mark.parametrize("rate,cycles,seed", [
        (0.08, 1500, 42),
        # run_mesh_point's default seed, as the sweeps run it
        (0.1, 1200, 2008),
    ], ids=["rate0.08", "rate0.1"])
    def test_i3_latency_within_25pct_of_i1(self, rate, cycles, seed):
        i1 = self._run("I1", rate=rate, cycles=cycles, seed=seed)
        i3 = self._run("I3", rate=rate, cycles=cycles, seed=seed)
        assert i3.stats.mean_packet_latency == pytest.approx(
            i1.stats.mean_packet_latency, rel=0.25
        )

    def test_i3_uses_a_third_of_the_wires(self):
        i1 = self._run("I1", cycles=10)
        i3 = self._run("I3", cycles=10)
        assert i3.total_wires / i1.total_wires == pytest.approx(
            10 / 32, rel=0.01
        )

    def test_all_kinds_lossless_under_moderate_load(self):
        for kind in ("I1", "I2", "I3"):
            net = self._run(kind, rate=0.15)
            assert net.stats.flits_ejected == net.stats.flits_injected, kind

    def test_i2_saturates_earlier_than_i3_at_300mhz(self):
        """I2's per-link rate cap (0.95 flit/cycle) bites under load."""
        i2 = self._run("I2", rate=0.45, cycles=1200)
        i3 = self._run("I3", rate=0.45, cycles=1200)
        assert (i2.stats.mean_packet_latency
                >= i3.stats.mean_packet_latency * 0.95)


class TestTrafficPatternsAcrossLinks:
    @pytest.mark.parametrize("pattern", ["transpose", "bit_complement",
                                         "neighbor"])
    def test_pattern_delivery_on_i3(self, pattern):
        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I3", 300)
        net = Network(topo, params)
        traffic = TrafficGenerator(
            topo,
            TrafficConfig(pattern=pattern, injection_rate=0.1, seed=7),
        )
        net.run(1000, traffic)
        net.drain()
        assert net.stats.flits_injected > 0
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_hotspot_congests_but_delivers(self):
        topo = Topology(4, 4)
        params = derive_link_params(st012(), "I3", 300)
        net = Network(topo, params)
        traffic = TrafficGenerator(
            topo,
            TrafficConfig(pattern="hotspot", hotspot=(1, 1),
                          hotspot_fraction=0.7, injection_rate=0.1, seed=7),
        )
        net.run(800, traffic)
        net.drain(max_cycles=200_000)
        assert net.stats.flits_ejected == net.stats.flits_injected


class TestLoadSweep:
    @pytest.mark.parametrize("kind,rates,cycles", [
        ("I1", [0.05, 0.15, 0.30], 1100),
        *((kind, [0.05, 0.15, 0.25, 0.35], 1500)
          for kind in ("I1", "I2", "I3")),
    ], ids=["I1-3-rates", "I1", "I2", "I3"])
    def test_saturation_ordering(self, kind, rates, cycles):
        """4x4 mesh at a 300 MHz switch clock: below saturation every
        link type accepts the offered load, and the sweep output is
        monotone enough to spot saturation."""
        params = derive_link_params(st012(), kind, 300)
        sweep = [run_mesh_point(Topology(4, 4), params, rate, cycles=cycles)
                 for rate in rates]
        assert sweep[0]["throughput"] >= 0.8 * sweep[0]["offered_rate"]
        latencies = [row["mean_latency"] for row in sweep]
        assert latencies == sorted(latencies)

    def test_sweep_rows_complete(self):
        point = run_mesh_point(
            Topology(3, 3), derive_link_params(st012(), "I3", 300), 0.05,
            cycles=500,
        )
        assert set(point) == {
            "offered_rate", "throughput", "mean_latency", "p99_latency",
            "flits_injected", "flits_ejected", "packets_ejected",
            "total_wires",
        }


class TestLargeMesh:
    def test_8x8_mesh_runs(self):
        topo = Topology(8, 8)
        params = derive_link_params(st012(), "I3", 300)
        net = Network(topo, params)
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.05, seed=3)
        )
        net.run(600, traffic)
        net.drain(max_cycles=200_000)
        assert net.stats.packets_ejected > 50
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_wire_savings_scale_with_mesh_size(self):
        for side in (2, 4, 8):
            topo = Topology(side, side)
            i1 = Network(topo, derive_link_params(st012(), "I1", 300))
            i3 = Network(topo, derive_link_params(st012(), "I3", 300))
            saved = i1.total_wires - i3.total_wires
            assert saved == 22 * topo.n_directed_links


class TestCornerMeshes:
    def test_1xn_chain(self):
        topo = Topology(4, 1)
        params = derive_link_params(st012(), "I3", 300)
        net = Network(topo, params)
        net.offer_packet(Packet(src=(0, 0), dest=(3, 0), length_flits=4))
        net.drain()
        assert net.stats.packets_ejected == 1

    def test_2x2_all_pairs(self):
        topo = Topology(2, 2)
        params = derive_link_params(st012(), "I2", 300)
        net = Network(topo, params)
        for src in topo.nodes():
            for dst in topo.nodes():
                if src != dst:
                    net.offer_packet(Packet(src=src, dest=dst,
                                            length_flits=2))
        net.drain()
        assert net.stats.packets_ejected == 12
