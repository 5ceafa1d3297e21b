"""Soak tests: long randomized streams under adversarial conditions.

Longer-running randomized scenarios (fixed seeds, deterministic) that
exercise the links and the mesh well past the short unit-test horizons:
hundreds of flits, irregular stall patterns, mixed packet sizes, and a
mesh soak near saturation.  These catch slow state corruption (pointer
drift in the FIFO rings, wormhole lock leaks, credit leaks) that short
tests cannot.
"""

import random

import pytest

from repro.link import LinkConfig, LinkTestbench, build_link
from repro.link.behavioral import derive_link_params
from repro.noc import (
    Network,
    Packet,
    Topology,
    TrafficConfig,
    TrafficGenerator,
    build_run,
    reset_packet_ids,
)
from repro.sim import Clock, Simulator
from repro.tech import st012


@pytest.fixture(autouse=True)
def fresh_ids():
    reset_packet_ids()


@pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
class TestLinkSoak:
    def test_200_random_flits(self, kind):
        rng = random.Random(0xC0FFEE)
        flits = [rng.getrandbits(32) for _ in range(200)]
        sim = Simulator()
        clock = Clock.from_mhz(sim, 300)
        link = build_link(sim, clock.signal, kind, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(flits, timeout_ns=1e7)
        assert m.received_values == flits

    def test_random_stall_pattern(self, kind):
        rng = random.Random(0xBEEF)
        flits = [rng.getrandbits(32) for _ in range(60)]
        stall_pattern = [rng.random() < 0.4 for _ in range(37)]  # prime len
        sim = Simulator()
        clock = Clock.from_mhz(sim, 300)
        link = build_link(sim, clock.signal, kind, LinkConfig())
        bench = LinkTestbench(sim, clock, link)
        m = bench.run(flits, timeout_ns=1e7,
                      stall_pattern=[int(s) for s in stall_pattern])
        assert m.received_values == flits


class TestMeshSoak:
    def test_near_saturation_uniform(self):
        """4×4 mesh at a high injection rate for 5k cycles: everything
        injected must eventually eject, latencies stay finite."""
        topo = Topology(4, 4)
        net = Network(topo, derive_link_params(st012(), "I3", 300))
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.35, seed=0xF00D)
        )
        net.run(5000, traffic)
        net.drain(max_cycles=500_000)
        stats = net.stats
        assert stats.flits_ejected == stats.flits_injected
        assert stats.packets_ejected > 1000
        assert stats.p99_packet_latency < 500

    def test_mixed_packet_lengths(self):
        """Interleave 1/4/16-flit packets from every node."""
        topo = Topology(3, 3)
        net = Network(topo, derive_link_params(st012(), "I2", 300))
        rng = random.Random(0xABba)
        nodes = list(topo.nodes())
        expected_flits = 0
        for _ in range(120):
            src, dest = rng.sample(nodes, 2)
            length = rng.choice((1, 4, 16))
            expected_flits += length
            net.offer_packet(Packet(src=src, dest=dest, length_flits=length))
        net.drain(max_cycles=500_000)
        assert net.stats.flits_ejected == expected_flits

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("routing", ["xy", "west_first"])
    def test_hotspot_drains(self, routing, seed):
        """Heavy hotspot traffic drains with one input lane per port.

        Switches with two virtual channels sharing each link's FIFO
        deadlocked on every one of these runs under both routings, which
        is why the NoC has no virtual channels.
        """
        net, traffic = build_run(
            Network, Topology(4, 4), derive_link_params(st012(), "I3", 300),
            0.3, pattern="hotspot", routing=routing, seed=seed,
        )
        net.run(600, traffic)
        net.drain(max_cycles=20_000)
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_wormhole_locks_all_released_after_drain(self):
        """After draining, no switch may hold a stale wormhole lock."""
        topo = Topology(4, 4)
        net = Network(topo, derive_link_params(st012(), "I1", 300))
        traffic = TrafficGenerator(
            topo, TrafficConfig(injection_rate=0.25, seed=0xCAFE)
        )
        net.run(2000, traffic)
        net.drain(max_cycles=300_000)
        for switch in net.switches.values():
            assert not any(switch._lanes) and switch._occ == 0
            assert switch._owner == [None] * len(switch._owner)
            assert switch._lock == [None] * len(switch._lock)
